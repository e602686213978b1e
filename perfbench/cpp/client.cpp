// ckks_client: a client/server request loop at logN=15, one
// closed-loop client.
//
// Request r, from the client's first call to its last:
//   client  encode(x_r) -> encrypt -> serialize
//   server  deserialize -> x*x (CMult + relin) -> rescale
//           -> rotate_hoisted {1, 2} -> PMult by the two server weight
//           vectors -> add -> serialize
//   client  deserialize -> decrypt -> decode
// and the reply is checked against w1_i x_{i+1}^2 + w2_i x_{i+2}^2.

#include <algorithm>
#include <memory>
#include <sstream>

#include "checks.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/serialize.h"
#include "workloads.h"

namespace perfbench {

using namespace poseidon;

namespace {

constexpr unsigned kLogN = 15;
constexpr std::size_t kL = 8;
constexpr int kSetupReps = 5;
constexpr std::size_t kMinRequests = 100;
/// Max abs error a reply may show (fresh-noise level is ~1e-6).
constexpr double kTolerance = 1.0 / 1024.0;

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
    std::vector<double> w1, w2; ///< server weights (plain)
    Plaintext pw1, pw2;         ///< encoded at the post-rescale level
    double keyBytes = 0.0;
    double tContext = 0, tPk = 0, tRelin = 0, tGalois = 0, tData = 0;

    double total() const { return tContext + tPk + tRelin + tGalois + tData; }
};

std::unique_ptr<Setup>
build(std::uint64_t seed)
{
    auto s = std::make_unique<Setup>();
    double t0 = now_s();
    CkksParams p;
    p.logN = kLogN;
    p.L = kL;
    p.K = 1;
    p.dnum = 0;
    p.scaleBits = 40;
    p.firstPrimeBits = 50;
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
    s->galois = s->keygen->make_galois_keys({1, 2});
    double t4 = now_s();

    Rng rng(seed, 0x57474854);
    std::size_t slots = s->ctx->slots();
    s->w1.resize(slots);
    s->w2.resize(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        s->w1[i] = rng.uniform(-1.0, 1.0);
        s->w2[i] = rng.uniform(-1.0, 1.0);
    }
    s->pw1 = s->encoder->encode_real(s->w1, kL - 1);
    s->pw2 = s->encoder->encode_real(s->w2, kL - 1);
    double t5 = now_s();

    s->keyBytes = key_bytes(s->relin);
    for (const auto &[g, k] : s->galois.keys) s->keyBytes += key_bytes(k);
    s->tContext = t1 - t0;
    s->tPk = t2 - t1;
    s->tRelin = t3 - t2;
    s->tGalois = t4 - t3;
    s->tData = t5 - t4;
    return s;
}

std::string
to_wire(Recorder &rec, const Ciphertext &ct)
{
    return rec.op("serialize", [&] {
        std::ostringstream os;
        io::write_ciphertext(os, ct);
        return std::move(os).str();
    });
}

Ciphertext
from_wire(Recorder &rec, const Setup &s, const std::string &bytes)
{
    return rec.op("deserialize", [&] {
        std::istringstream is(bytes);
        return io::read_ciphertext(is, s.ctx->ring());
    });
}

} // namespace

void
run_ckks_client(const Options &opt, Sheet &sheet)
{
    std::vector<double> setupS, ctxS, pkS, relinS, galS, dataS;
    std::unique_ptr<Setup> s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.reset(); // one key set alive at a time
        s = build(opt.seed);
        setupS.push_back(s->total());
        ctxS.push_back(s->tContext);
        pkS.push_back(s->tPk);
        relinS.push_back(s->tRelin);
        galS.push_back(s->tGalois);
        dataS.push_back(s->tData);
    }
    calibrate_kernels(s->ctx->degree(), sheet);

    const CkksEvaluator &ev = *s->eval;
    std::size_t slots = s->ctx->slots();
    Recorder rec(opt.trace);
    Rng rng(opt.seed, 0x52455153);
    std::vector<double> reqMs, reqBits;
    double worstErr = 0.0;
    double wireBytes = 0.0;
    std::size_t wireCts = 0;
    double t0 = now_s();
    for (std::size_t r = 0;; ++r) {
        std::vector<double> x(slots);
        for (auto &v : x) v = rng.uniform(-1.0, 1.0);

        // A traced run traces its later requests; the earlier ones
        // are the untraced baseline of trace.overhead_ratio.
        bool traced =
            opt.trace && r >= 1 && now_s() - t0 >= 0.4 * opt.seconds;
        rec.begin_unit("request", traced);
        // client
        Plaintext pt = rec.op("encode", [&] {
            return s->encoder->encode_real(x, kL);
        });
        Ciphertext ct = rec.op("encrypt", [&] {
            return s->encryptor->encrypt(pt);
        });
        std::string req = to_wire(rec, ct);
        // server
        Ciphertext in = from_wire(rec, *s, req);
        Ciphertext sq = rec.op("mul", [&] { return ev.mul(in, in, s->relin); });
        rec.op("rescale", [&] { ev.rescale_inplace(sq); });
        std::vector<Ciphertext> rot = rec.op("rotate_hoisted", [&] {
            return ev.rotate_hoisted(sq, {1, 2}, s->galois);
        });
        Ciphertext a = rec.op("mul_plain", [&] {
            return ev.mul_plain(rot[0], s->pw1);
        });
        Ciphertext b = rec.op("mul_plain", [&] {
            return ev.mul_plain(rot[1], s->pw2);
        });
        Ciphertext out = rec.op("add", [&] { return ev.add(a, b); });
        std::string reply = to_wire(rec, out);
        // client
        Ciphertext back = from_wire(rec, *s, reply);
        Plaintext dec = rec.op("decrypt", [&] {
            return s->decryptor->decrypt(back);
        });
        std::vector<cdouble> got = rec.op("decode", [&] {
            return s->encoder->decode(dec);
        });
        reqMs.push_back(rec.end_unit().wallMs);

        wireBytes += static_cast<double>(req.size() + reply.size());
        wireCts += 2;
        std::vector<cdouble> want(slots);
        for (std::size_t i = 0; i < slots; ++i) {
            double x1 = x[(i + 1) % slots];
            double x2 = x[(i + 2) % slots];
            want[i] = s->w1[i] * x1 * x1 + s->w2[i] * x2 * x2;
        }
        double err = max_abs_err(got, want);
        worstErr = std::max(worstErr, err);
        reqBits.push_back(precision_bits(err));
        sheet.unit_verdict(err <= kTolerance);
        if (reqMs.size() >= kMinRequests && now_s() - t0 >= opt.seconds &&
            (!opt.trace || traced)) {
            break;
        }
    }
    if (worstErr > kTolerance) {
        sheet.violation("ckks_client reply off the plaintext result by " +
                        std::to_string(worstErr));
    } else {
        sheet.gate("ckks_client replies within " +
                   std::to_string(kTolerance) + " of plaintext (worst " +
                   std::to_string(worstErr) + ")");
    }

    std::vector<double> untraced;
    for (const auto &u : rec.units()) {
        if (!u.traced) untraced.push_back(u.wallMs);
    }
    double prec = median(reqBits);
    sheet.e2e("setup_s", median(setupS), setupS.size(),
              "context + keys + server weights, median of set-ups");
    sheet.e2e("peak_rss_mb", peak_rss_mb(), 1, "ru_maxrss");
    sheet.e2e("unit_ms_p50", median(reqMs), reqMs.size(),
              "= req_ms_p50, one client request");
    // One closed-loop client: throughput is the inverse of the request
    // time, taken at the median so a passing stall moves it little.
    sheet.e2e("units_per_s", 1e3 / median(reqMs), reqMs.size(),
              "requests per wall second at the median request");
    sheet.e2e("precision_bits", prec, reqBits.size(),
              "median over requests of the decrypted reply vs plaintext");
    sheet.named("worst_precision_bits", precision_bits(worstErr), "bits",
                reqBits.size(), "worst request of the run");
    sheet.named("req_ms_p50", median(untraced), "ms", untraced.size(),
                "one client request");
    sheet.named("req_ms_p90", quantile(untraced, 0.9), "ms",
                untraced.size(), "one client request");
    sheet.layer("unit_ms_p90", quantile(untraced, 0.9));

    sheet.layer("ckks.setup.context_s", median(ctxS));
    sheet.layer("ckks.setup.pk_s", median(pkS));
    sheet.layer("ckks.setup.relin_s", median(relinS));
    sheet.layer("ckks.setup.galois_s", median(galS));
    sheet.layer("ckks.setup.data_s", median(dataS));
    sheet.layer("ckks.key_mb", s->keyBytes / (1024.0 * 1024.0));
    sheet.layer("ckks.wire_bytes_per_ct",
                wireBytes / static_cast<double>(wireCts));
    if (opt.trace) {
        fill_span_layers(rec, "request", sheet);
    }
}

} // namespace perfbench
