// helr_boot: encrypted logistic-regression training with packed
// bootstrapping at logN=11, L=30, K=1, dnum=0, one closed-loop caller.
//
// Data layout (1024 slots): sample i owns the 8-slot block
// [8i, 8i+8); its 4 features z_ij = y_i * x_ij sit at 8i+j and again
// at 8i+4+j. The duplicate lets two rotations give every slot 8i+j
// (j < 4) the full inner product z_i . w with no masking multiply,
// and the 128-block stride makes the sum over samples a cyclic
// rotate-and-sum that leaves the gradient replicated in every block.
//
// One iteration, at 2 levels:
//   u = Zdup * W; rescale; u += rot(u,1); u += rot(u,2)   (z_i . w)
//   u += -2                                               (sigmoid)
//   g = u * Zmask; rescale                 (c * (z_i.w - 2) * z_ij)
//   g += rot(g, 8 * 2^k) for k < 7                  (sum over samples)
//   g += rot(g, -4); W = W + g                      (duplicate, update)
// i.e. w += eta/m * sum_i (1/2 - z_i.w / 4) z_i: gradient ascent with
// the degree-1 sigmoid sigma(-t) ~ 1/2 - t/4. Zmask is Zdup's data
// times c = -eta/(4 m kappa), zero on the duplicate half (which
// clears the inner-product garbage there), encoded at the scale that
// makes g land exactly on W's scale. The ciphertext carries
// W = w / kappa so the bootstrap's EvalMod sees small messages.
//
// A bootstrap refreshes W whenever the next iteration no longer fits:
// the default BootstrapConfig consumes 21 of the 30 levels, leaving 8,
// so a cycle is one bootstrap plus 4 iterations.
//
// Each unit is checked on its own: the float reference replays the
// unit's slot dataflow (the same LR step with the same sigmoid) on the
// unit's decrypted input, or, for a bootstrap, is that input. Checking
// units rather than the whole trajectory keeps the verdict and
// precision_bits independent of how many units fit in --seconds: the
// bootstrap's noise would otherwise accumulate as a random walk.

#include <algorithm>
#include <array>
#include <memory>

#include "checks.h"
#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "workloads.h"

namespace perfbench {

using namespace poseidon;

namespace {

constexpr unsigned kLogN = 11;
constexpr std::size_t kL = 30;
constexpr std::size_t kFeatures = 4;
constexpr std::size_t kBlock = 8;
constexpr std::size_t kSamples = (std::size_t(1) << (kLogN - 1)) / kBlock;
constexpr double kKappa = 2.0; ///< ciphertext holds w / kappa
constexpr double kEta = 1.0;
constexpr std::size_t kItersPerBoot = 4;
constexpr int kSetupReps = 3;
/// Max |w - w_ref| a unit may show; one bootstrap adds ~8e-3 here.
constexpr double kTolerance = 1.0 / 32.0;

struct Dataset
{
    std::vector<std::array<double, kFeatures>> z; ///< y_i * x_i
};

Dataset
make_dataset(std::uint64_t seed)
{
    Rng rng(seed, 0x4E4C52);
    std::array<double, kFeatures> wTrue{};
    for (auto &v : wTrue) v = rng.uniform(-1.0, 1.0);
    Dataset d;
    for (std::size_t i = 0; i < kSamples; ++i) {
        std::array<double, kFeatures> x{};
        x[0] = 1.0; // bias
        for (std::size_t j = 1; j < kFeatures; ++j) {
            x[j] = rng.uniform(-1.0, 1.0);
        }
        double t = 0.5 * rng.gauss();
        for (std::size_t j = 0; j < kFeatures; ++j) t += x[j] * wTrue[j];
        double y = t >= 0.0 ? 1.0 : -1.0;
        for (auto &v : x) v *= y;
        d.z.push_back(x);
    }
    return d;
}

/// Everything set-up builds; never moved (the bootstrapper keeps a
/// reference to the encoder).
struct Setup
{
    CkksContextPtr ctx;
    std::unique_ptr<KeyGenerator> keygen;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<CkksEncryptor> encryptor;
    std::unique_ptr<CkksDecryptor> decryptor;
    std::unique_ptr<CkksEvaluator> eval;
    KSwitchKey relin;
    GaloisKeys galois;
    std::unique_ptr<Bootstrapper> boot;
    std::map<std::size_t, Ciphertext> zdup;  ///< by limb count
    std::map<std::size_t, Ciphertext> zmask; ///< by limb count
    std::vector<cdouble> dup, mask;          ///< their plaintext slots
    double keyBytes = 0.0;
    // Phase wall times, seconds.
    double tContext = 0, tPk = 0, tRelin = 0, tGalois = 0, tBoot = 0,
           tData = 0;

    double total() const
    {
        return tContext + tPk + tRelin + tGalois + tBoot + tData;
    }
};

std::unique_ptr<Setup>
build(std::uint64_t seed, const Dataset &d)
{
    auto s = std::make_unique<Setup>();
    double t0 = now_s();
    CkksParams p;
    p.logN = kLogN;
    p.L = kL;
    p.K = 1;
    p.dnum = 0;
    p.scaleBits = 40;
    p.firstPrimeBits = 45;
    p.specialPrimeBits = 50;
    p.seed = Rng(seed, 0x4B455953).next();
    s->ctx = make_ckks_context(p);
    double t1 = now_s();
    s->keygen = std::make_unique<KeyGenerator>(s->ctx);
    s->encoder = std::make_unique<CkksEncoder>(s->ctx);
    s->encryptor = std::make_unique<CkksEncryptor>(
        s->ctx, s->keygen->make_public_key(), Rng(seed, 0x454E43).next());
    s->decryptor =
        std::make_unique<CkksDecryptor>(s->ctx, s->keygen->secret_key());
    s->eval = std::make_unique<CkksEvaluator>(s->ctx);
    double t2 = now_s();
    s->relin = s->keygen->make_relin_key();
    double t3 = now_s();
    std::vector<long> steps = {1, 2, -4};
    for (long k = static_cast<long>(kBlock); k < static_cast<long>(
                                                 s->ctx->slots());
         k *= 2) {
        steps.push_back(k);
    }
    s->galois = s->keygen->make_galois_keys(steps);
    double t4 = now_s();
    s->boot = std::make_unique<Bootstrapper>(s->ctx, *s->encoder, *s->keygen);
    double t5 = now_s();

    // Client-side data encryption, once per level an iteration reads.
    std::size_t slots = s->ctx->slots();
    double c = -0.25 * kEta / (static_cast<double>(kSamples) * kKappa);
    std::vector<cdouble> &dup = s->dup, &mask = s->mask;
    dup.resize(slots);
    mask.resize(slots);
    for (std::size_t sl = 0; sl < slots; ++sl) {
        double z = d.z[sl / kBlock][sl % kFeatures];
        dup[sl] = kKappa * z;
        mask[sl] = (sl % kBlock) < kFeatures ? c * z : 0.0;
    }
    std::size_t top = kL - s->boot->levels_consumed();
    const auto &ring = s->ctx->ring();
    for (std::size_t l = top; l >= 3; l -= 2) {
        s->zdup[l] = s->encryptor->encrypt(s->encoder->encode(dup, l));
        // g = (Zdup * W / q_{l-1}) * Zmask / q_{l-2} lands on W's scale.
        double maskScale = static_cast<double>(ring->prime(l - 1)) *
                           static_cast<double>(ring->prime(l - 2)) /
                           s->ctx->params().scale();
        s->zmask[l - 1] = s->encryptor->encrypt(
            s->encoder->encode(mask, l - 1, maskScale));
    }
    double t6 = now_s();

    s->keyBytes = key_bytes(s->relin);
    for (const auto &[g, k] : s->galois.keys) s->keyBytes += key_bytes(k);
    // The bootstrapper's own relinearization, BSGS rotation and
    // conjugation keys have the relinearization key's shape.
    s->keyBytes += key_bytes(s->relin) *
                   static_cast<double>(s->boot->rotation_steps().size() + 2);

    s->tContext = t1 - t0;
    s->tPk = t2 - t1;
    s->tRelin = t3 - t2;
    s->tGalois = t4 - t3;
    s->tBoot = t5 - t4;
    s->tData = t6 - t5;
    return s;
}

Ciphertext
iterate(Setup &s, Recorder &rec, Ciphertext w)
{
    const CkksEvaluator &ev = *s.eval;
    std::size_t l = w.num_limbs();
    const Ciphertext &zd = s.zdup.at(l);
    const Ciphertext &zm = s.zmask.at(l - 1);

    Ciphertext u = rec.op("mul", [&] { return ev.mul(zd, w, s.relin); });
    rec.op("rescale", [&] { ev.rescale_inplace(u); });
    for (long k : {1L, 2L}) {
        Ciphertext r = rec.op("rotate", [&] { return ev.rotate(u, k, s.galois); });
        rec.op("add", [&] { ev.add_inplace(u, r); });
    }
    Plaintext two = rec.op("encode", [&] {
        return s.encoder->encode_scalar(-2.0, u.num_limbs(), u.scale);
    });
    u = rec.op("add_plain", [&] { return ev.add_plain(u, two); });
    Ciphertext g = rec.op("mul", [&] { return ev.mul(u, zm, s.relin); });
    rec.op("rescale", [&] { ev.rescale_inplace(g); });
    for (long k = static_cast<long>(kBlock);
         k < static_cast<long>(s.ctx->slots()); k *= 2) {
        Ciphertext r = rec.op("rotate", [&] { return ev.rotate(g, k, s.galois); });
        rec.op("add", [&] { ev.add_inplace(g, r); });
    }
    Ciphertext r = rec.op("rotate", [&] { return ev.rotate(g, -4, s.galois); });
    rec.op("add", [&] { ev.add_inplace(g, r); });
    rec.op("drop", [&] { ev.drop_to_limbs_inplace(w, g.num_limbs()); });
    return rec.op("add", [&] { return ev.add(w, g); });
}

Ciphertext
refresh(Setup &s, Recorder &rec, bool traced, const Ciphertext &w)
{
    const CkksEvaluator &ev = *s.eval;
    if (!traced) return s.boot->bootstrap(w, ev);
    // The same stage sequence Bootstrapper::bootstrap runs, one span
    // per stage.
    double msgScale = w.scale;
    Ciphertext raised =
        rec.op("boot.mod_raise", [&] { return s.boot->mod_raise(w); });
    auto [lo, hi] = rec.op("boot.coeff_to_slot", [&] {
        return s.boot->coeff_to_slot(raised, ev, msgScale);
    });
    Ciphertext mlo = rec.op("boot.eval_mod", [&] {
        return s.boot->eval_mod(lo, ev, msgScale);
    });
    Ciphertext mhi = rec.op("boot.eval_mod", [&] {
        return s.boot->eval_mod(hi, ev, msgScale);
    });
    return rec.op("boot.slot_to_coeff", [&] {
        return s.boot->slot_to_coeff(mlo, mhi, ev);
    });
}

/// Left rotation of a slot vector (slot i <- slot i+k), as rotate().
std::vector<cdouble>
rot(const std::vector<cdouble> &v, long k)
{
    long n = static_cast<long>(v.size());
    std::vector<cdouble> out(v.size());
    for (long i = 0; i < n; ++i) {
        out[static_cast<std::size_t>(i)] =
            v[static_cast<std::size_t>(((i + k) % n + n) % n)];
    }
    return out;
}

void
add_to(std::vector<cdouble> &a, const std::vector<cdouble> &b)
{
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

/// iterate() on plaintext slots: the unit's float reference.
std::vector<cdouble>
reference_iteration(const Setup &s, std::vector<cdouble> w)
{
    std::vector<cdouble> u(w.size());
    for (std::size_t i = 0; i < u.size(); ++i) u[i] = s.dup[i] * w[i];
    for (long k : {1L, 2L}) add_to(u, rot(u, k));
    std::vector<cdouble> g(u.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
        g[i] = (u[i] - 2.0) * s.mask[i];
    }
    for (long k = static_cast<long>(kBlock); k < static_cast<long>(g.size());
         k *= 2) {
        add_to(g, rot(g, k));
    }
    add_to(g, rot(g, -4));
    add_to(w, g);
    return w;
}

std::vector<cdouble>
decrypt(const Setup &s, const Ciphertext &ct)
{
    return s.encoder->decode(s.decryptor->decrypt(ct));
}

/// Max error of the unit's output in units of w (= kappa * W).
double
unit_error(const std::vector<cdouble> &got, const std::vector<cdouble> &want)
{
    return kKappa * max_abs_err(got, want);
}

} // namespace

void
run_helr_boot(const Options &opt, Sheet &sheet)
{
    Dataset data = make_dataset(opt.seed);

    std::vector<double> setupS, ctxS, pkS, relinS, galS, bootS, dataS;
    std::unique_ptr<Setup> s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.reset(); // one key set alive at a time
        s = build(opt.seed, data);
        setupS.push_back(s->total());
        ctxS.push_back(s->tContext);
        pkS.push_back(s->tPk);
        relinS.push_back(s->tRelin);
        galS.push_back(s->tGalois);
        bootS.push_back(s->tBoot);
        dataS.push_back(s->tData);
    }
    calibrate_kernels(s->ctx->degree(), sheet);

    Recorder rec(opt.trace);
    std::vector<cdouble> zero(s->ctx->slots(), 0.0);
    Ciphertext w = s->encryptor->encrypt(s->encoder->encode(zero, 1));
    double worstErr = 0.0;
    std::size_t iters = 0;
    std::vector<double> iterMs, bootMs, bootMsUntraced;
    std::vector<double> cycleItersPerS, cycleBits, cycleIterMs, cycleMaxMs;
    std::vector<double> cycleMaxMsUntraced;
    double t0 = now_s();
    for (std::size_t cycle = 0;; ++cycle) {
        // A traced run traces its later cycles; the earlier ones are
        // the untraced baseline of trace.overhead_ratio.
        bool traced =
            opt.trace && cycle >= 1 && now_s() - t0 >= 0.4 * opt.seconds;
        std::vector<cdouble> in = decrypt(*s, w);
        rec.begin_unit("boot", traced);
        w = refresh(*s, rec, traced, w);
        UnitRecord bu = rec.end_unit();
        bootMs.push_back(bu.wallMs);
        if (!traced) bootMsUntraced.push_back(bu.wallMs);
        std::vector<cdouble> out = decrypt(*s, w);
        double err = unit_error(out, in);
        double cycleErr = err;
        double cycleMs = bu.wallMs;
        sheet.unit_verdict(err <= kTolerance);

        for (std::size_t k = 0; k < kItersPerBoot; ++k) {
            std::vector<cdouble> want = reference_iteration(*s, out);
            rec.begin_unit("iteration", traced);
            w = iterate(*s, rec, std::move(w));
            iterMs.push_back(rec.end_unit().wallMs);
            cycleMs += iterMs.back();
            ++iters;
            out = decrypt(*s, w);
            err = unit_error(out, want);
            cycleErr = std::max(cycleErr, err);
            sheet.unit_verdict(err <= kTolerance);
        }
        worstErr = std::max(worstErr, cycleErr);
        cycleBits.push_back(precision_bits(cycleErr));
        cycleItersPerS.push_back(static_cast<double>(kItersPerBoot) /
                                 (cycleMs / 1e3));
        cycleIterMs.push_back((cycleMs - bu.wallMs) /
                              static_cast<double>(kItersPerBoot));
        cycleMaxMs.push_back(*std::max_element(iterMs.end() - kItersPerBoot,
                                               iterMs.end()));
        if (!traced) cycleMaxMsUntraced.push_back(cycleMaxMs.back());
        if (now_s() - t0 >= opt.seconds && (!opt.trace || traced)) break;
    }
    if (worstErr > kTolerance) {
        sheet.violation("helr unit off its float reference by " +
                        std::to_string(worstErr));
    } else {
        sheet.gate("helr units within " + std::to_string(kTolerance) +
                   " of their float LR reference (worst " +
                   std::to_string(worstErr) + ")");
    }

    // Medians over cycles (one bootstrap + its iterations), so a
    // passing stall on a shared box moves them little.
    double itersPerS = median(cycleItersPerS);
    double prec = median(cycleBits);

    sheet.e2e("setup_s", median(setupS), setupS.size(),
              "context + keys + bootstrapper + data, median of set-ups");
    sheet.e2e("peak_rss_mb", peak_rss_mb(), 1, "ru_maxrss");
    // A cycle runs one iteration at each of 4 levels, and the levels'
    // times differ: the plain median of all iterations sits on the edge
    // between two level groups, and their p90 is a few samples of the
    // top-level group. So both come per cycle, then the median over
    // cycles: the cycle's mean iteration (p50) and its slowest, top-level
    // iteration (p90; 1 in 4 iterations, ~p88 of the distribution).
    sheet.e2e("unit_ms_p50", median(cycleIterMs), cycleIterMs.size(),
              "one training iteration, median over cycles of the mean");
    sheet.e2e("units_per_s", itersPerS, cycleItersPerS.size(),
              "= helr_iters_per_s, median over cycles");
    sheet.e2e("precision_bits", prec, cycleBits.size(),
              "median over cycles of the worst unit vs its float reference");
    sheet.named("helr_iters_per_s", itersPerS, "1/s", cycleItersPerS.size(),
                "iterations per wall second, bootstraps included, median "
                "over cycles");
    sheet.named("worst_precision_bits", precision_bits(worstErr), "bits",
                iters + bootMs.size(), "worst unit of the run");
    sheet.named("boot_s_p50", median(bootMs) / 1e3, "s", bootMs.size(),
                "one Bootstrapper::bootstrap");
    sheet.named("unit_ms_p90", median(cycleMaxMs), "ms", cycleMaxMs.size(),
                "one training iteration, median over cycles of the slowest");

    sheet.layer("boot_s_p50", median(bootMsUntraced) / 1e3);
    sheet.layer("unit_ms_p90", median(cycleMaxMsUntraced));
    sheet.layer("ckks.setup.context_s", median(ctxS));
    sheet.layer("ckks.setup.pk_s", median(pkS));
    sheet.layer("ckks.setup.relin_s", median(relinS));
    sheet.layer("ckks.setup.galois_s", median(galS));
    sheet.layer("ckks.setup.bootstrapper_s", median(bootS));
    sheet.layer("ckks.setup.data_s", median(dataS));
    sheet.layer("ckks.key_mb", s->keyBytes / (1024.0 * 1024.0));
    if (opt.trace) {
        fill_span_layers(rec, "iteration", sheet);
    }
}

} // namespace perfbench
