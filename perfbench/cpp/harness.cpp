#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "kernels/kernels.h"
#include "ntt/ntt.h"
#include "ntt/table_cache.h"
#include "rns/primes.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace perfbench {

using poseidon::telemetry::Json;
using poseidon::telemetry::MetricsRegistry;
using poseidon::telemetry::TraceEvent;
using poseidon::telemetry::Tracer;

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(const std::vector<double> &xs, double q)
{
    if (xs.empty()) return 0.0;
    return poseidon::telemetry::exact_quantile(xs, q);
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

double
peak_rss_mb()
{
    rusage r{};
    getrusage(RUSAGE_SELF, &r);
    return static_cast<double>(r.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

const std::vector<std::string>&
region_names()
{
    static const std::vector<std::string> kNames = {
        "poly.ntt",          "poly.intt",         "poly.elementwise",
        "poly.automorphism", "rns.conv",          "rns.moddown",
        "ckks.tensor",       "ckks.decompose",    "ckks.keyswitch_acc",
        "ckks.rotate_acc",   "ckks.rescale",      "ckks.encrypt",
        "ckks.decrypt",      "ckks.decode"};
    return kNames;
}

LayerSnapshot
LayerSnapshot::take()
{
    LayerSnapshot s;
    auto &reg = MetricsRegistry::global();
    for (const auto &name : region_names()) {
        auto &h = reg.histogram("parallel.region_us." + name);
        s.regionUs.push_back(h.sum());
        s.regionCalls.push_back(static_cast<double>(h.count()));
    }
    s.pool = poseidon::parallel::pool_stats();
    return s;
}

// ---------------------------------------------------------------- Recorder

Recorder::Recorder(bool traceEnabled) : enabled_(traceEnabled) {}

Recorder::~Recorder()
{
    if (sessionLive_) Tracer::global().stop();
}

int
Recorder::open_span(const char *name)
{
    Span s;
    s.name = name;
    s.unit = cur_.id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.t0 = Tracer::global().now_us();
    spans_.push_back(std::move(s));
    int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
}

void
Recorder::close_span(int idx)
{
    Span &s = spans_[static_cast<std::size_t>(idx)];
    s.t1 = Tracer::global().now_us();
    stack_.pop_back();
    TraceEvent ev;
    ev.name = s.name;
    ev.pid = Tracer::kHostPid;
    ev.tid = Tracer::thread_tid();
    ev.tsUs = s.t0;
    ev.durUs = s.t1 - s.t0;
    ev.args.push_back({"unit", Json(static_cast<double>(s.unit))});
    ev.args.push_back(
        {"parent", s.parent < 0
                       ? Json("")
                       : Json(spans_[static_cast<std::size_t>(s.parent)]
                                  .name)});
    Tracer::global().complete_event(std::move(ev));
}

Recorder::Guard::Guard(Recorder &r, const char *name)
    : rec(r), idx(r.open_span(name))
{
}

Recorder::Guard::~Guard()
{
    rec.close_span(idx);
}

void
Recorder::begin_unit(const char *kind, bool traced)
{
    if (traced && !enabled_) {
        throw std::logic_error("traced unit in an untraced run");
    }
    // The library records its own spans whenever a session is live,
    // so one session covers one contiguous window of traced units:
    // it starts with the first of them and stops (keeping its events)
    // at the next untraced unit.
    if (traced && sessionDone_) {
        throw std::logic_error("traced units must be contiguous");
    }
    if (traced && !sessionLive_) {
        Tracer::global().start();
        sessionLive_ = true;
    }
    if (!traced && sessionLive_) {
        Tracer::global().stop();
        sessionLive_ = false;
        sessionDone_ = true;
    }
    cur_ = UnitRecord{};
    cur_.kind = kind;
    cur_.id = nextId_++;
    cur_.traced = traced;
    live_ = traced;
    if (traced) {
        cur_.before = LayerSnapshot::take();
        unitFirstSpan_ = spans_.size();
        open_span(kind);
    }
    unitT0_ = now_s();
}

UnitRecord
Recorder::end_unit()
{
    double t1 = now_s();
    cur_.wallMs = (t1 - unitT0_) * 1e3;
    if (live_) {
        int root = stack_.front();
        close_span(root);
        cur_.after = LayerSnapshot::take();
        // Self time = span minus the part its direct children cover
        // (children never overlap: calls are sequential).
        std::vector<double> childUs(spans_.size() - unitFirstSpan_, 0.0);
        for (std::size_t i = unitFirstSpan_ + 1; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            childUs[static_cast<std::size_t>(s.parent) - unitFirstSpan_] +=
                s.t1 - s.t0;
        }
        for (std::size_t i = unitFirstSpan_; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double selfMs =
                (s.t1 - s.t0 - childUs[i - unitFirstSpan_]) / 1e3;
            if (static_cast<int>(i) == root) {
                cur_.appSelfMs = selfMs;
                cur_.wallMs = (s.t1 - s.t0) / 1e3;
            } else {
                cur_.opSelfMs[s.name] += selfMs;
            }
        }
        live_ = false;
    }
    units_.push_back(cur_);
    return units_.back();
}

// ------------------------------------------------------------------- Sheet

const std::vector<std::pair<std::string, std::string>>&
e2e_metrics()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"setup_s", "s"},          {"peak_rss_mb", "MB"},
        {"unit_ms_p50", "ms"},     {"units_per_s", "1/s"},
        {"precision_bits", "bits"}};
    return k;
}

const std::vector<std::string>&
span_ops()
{
    static const std::vector<std::string> k = {
        "encode",   "encrypt",        "serialize", "deserialize",
        "mul",      "rescale",        "rotate",    "rotate_hoisted",
        "mul_plain", "add",           "add_plain", "decrypt",
        "decode"};
    return k;
}

const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics()
{
    static const std::vector<std::pair<std::string, std::string>> k = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"app.self_ms", "ms"}, {"trace.overhead_ratio", "ratio"}};
        for (const auto &op : span_ops()) {
            v.push_back({"ckks." + op + ".ms_p50", "ms"});
            v.push_back({"ckks." + op + ".calls", "count"});
        }
        for (const char *st : {"mod_raise", "coeff_to_slot", "eval_mod",
                               "slot_to_coeff"}) {
            v.push_back({std::string("ckks.boot.") + st + ".ms_p50", "ms"});
        }
        for (const char *st :
             {"context", "pk", "relin", "galois", "bootstrapper", "data"}) {
            v.push_back({std::string("ckks.setup.") + st + "_s", "s"});
        }
        v.push_back({"ckks.wire_bytes_per_ct", "bytes"});
        v.push_back({"ckks.key_mb", "MB"});
        for (const auto &r : region_names()) {
            v.push_back({"region." + r + ".ms", "ms"});
            v.push_back({"region." + r + ".calls", "count"});
        }
        v.insert(v.end(), {
            {"region.unattributed_ms", "ms"},
            {"parallel.regions", "count"},
            {"parallel.serial_share", "ratio"},
            {"parallel.tasks_per_region", "count"},
            {"ntt.fwd_us", "us"},
            {"ntt.inv_us", "us"},
            {"kernels.mulmod_ns_per_elem", "ns"},
            {"ntt.table_cache.hits", "count"},
            {"ntt.table_cache.misses", "count"},
            {"isa.compile_ms", "ms"},
            {"isa.instrs_per_job", "count"},
            {"hw.price_us_per_attempt", "us"}});
        for (const char *w : {"boot", "lr"}) {
            std::string p = std::string("hw.") + w + ".";
            v.insert(v.end(), {{p + "compute_exposed_share", "ratio"},
                               {p + "memory_exposed_share", "ratio"},
                               {p + "overlapped_share", "ratio"},
                               {p + "hbm_bw_util", "ratio"},
                               {p + "ntt_occupancy", "ratio"}});
        }
        v.insert(v.end(), {
            {"hw.paper_ratio.boot", "ratio"},
            {"hw.paper_ratio.lr", "ratio"},
            {"serve.attempts_per_job", "count"},
            {"serve.retry_share", "ratio"},
            {"serve.jobs_per_batch", "count"},
            {"serve.fleet_occupancy", "ratio"},
            {"serve.journal_events_per_job", "count"},
            {"serve.tsdb_samples", "count"},
            {"serve.alert_edges", "count"},
            {"cluster.locality_hit_rate", "ratio"},
            {"cluster.key_transfer_mb", "MB"},
            {"cluster.reroutes", "count"},
            {"cluster.bookkeeping_host_ms", "ms"},
            {"telemetry.journal_mb", "MB"},
            {"telemetry.tsdb_mb", "MB"},
            {"telemetry.dump_ms", "ms"},
            {"unit_ms_p90", "ms"},
            {"fail_ratio", "ratio"},
            {"boot_s_p50", "s"},
            {"sim_jobs_per_host_s", "1/s"},
            {"sim_jobs_per_s", "1/s"},
            {"sim_latency_us_p50", "us_sim"},
            {"sim_latency_us_p999", "us_sim"},
            {"sim_boot_ms", "ms_sim"},
            {"sim_lr_iter_ms", "ms_sim"}});
        return v;
    }();
    return k;
}

Sheet::Sheet()
{
    // A layer the workload never runs reads 0 (no calls, no time).
    for (const auto &[name, unit] : per_layer_metrics()) {
        layer_[name] = Value{0.0, unit};
    }
}

namespace {

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
short_num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

const std::string&
unit_of(const std::vector<std::pair<std::string, std::string>> &list,
        const std::string &name)
{
    for (const auto &[n, u] : list) {
        if (n == name) return u;
    }
    throw std::logic_error("perfbench: unknown metric " + name);
}

} // namespace

void
Sheet::e2e(const std::string &name, double v, std::size_t samples,
           const std::string &what)
{
    const std::string &unit = unit_of(e2e_metrics(), name);
    e2e_[name] = Value{v, unit};
    lines_.push_back("e2e    " + name + " = " + short_num(v) + " " + unit +
                     " (n=" + std::to_string(samples) + "; " + what + ")");
}

void
Sheet::layer(const std::string &name, double v)
{
    layer_[name] = Value{v, unit_of(per_layer_metrics(), name)};
}

void
Sheet::named(const std::string &name, double v, const std::string &unit,
             std::size_t samples, const std::string &what)
{
    lines_.push_back("metric " + name + " = " + short_num(v) + " " + unit +
                     " (n=" + std::to_string(samples) + "; " + what + ")");
}

void
Sheet::stamp(const std::string &key, const std::string &value)
{
    lines_.push_back("stamp  " + key + " = " + value);
}

void
Sheet::unit_verdict(bool ok)
{
    ++attempted_;
    if (!ok) ++failed_;
}

void
Sheet::violation(const std::string &why)
{
    violations_.push_back(why);
}

void
Sheet::gate(const std::string &what)
{
    gates_.push_back(what);
}

bool
Sheet::print(bool trace) const
{
    bool ok = correct();
    for (const auto &l : lines_) std::printf("%s\n", l.c_str());
    for (const auto &g : gates_) std::printf("gate   ok: %s\n", g.c_str());
    for (const auto &v : violations_) {
        std::printf("gate   FAILED: %s\n", v.c_str());
    }
    double ratio = attempted_ == 0
                       ? 0.0
                       : static_cast<double>(failed_) /
                             static_cast<double>(attempted_);
    std::printf("metric fail_ratio = %s ratio (n=%llu units)\n",
                short_num(ratio).c_str(),
                static_cast<unsigned long long>(attempted_));
    if (trace) {
        for (const auto &[name, unit] : per_layer_metrics()) {
            double v = name == "fail_ratio" ? ratio : layer_.at(name).value;
            std::printf("layer  %s = %s %s\n", name.c_str(),
                        short_num(v).c_str(), unit.c_str());
        }
    }

    // The final line: exactly correct / attempted / failed / metrics.
    const auto &list = trace ? per_layer_metrics() : e2e_metrics();
    const auto &vals = trace ? layer_ : e2e_;
    std::ostringstream ms;
    bool first = true;
    for (const auto &[name, unit] : list) {
        auto it = vals.find(name);
        if (it == vals.end()) {
            std::printf("gate   FAILED: metric %s was not measured\n",
                        name.c_str());
            ok = false;
            continue;
        }
        double v = trace && name == "fail_ratio" ? ratio : it->second.value;
        if (!std::isfinite(v)) {
            std::printf("gate   FAILED: metric %s is not finite\n",
                        name.c_str());
            ok = false;
            v = 0.0;
        }
        ms << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << num(v) << ", \"unit\": \"" << unit << "\"}";
        first = false;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                ok ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), ms.str().c_str());
    std::fflush(stdout);
    return ok;
}

// ------------------------------------------------------ per-layer from spans

void
fill_span_layers(const Recorder &rec, const std::string &perUnit,
                 Sheet &sheet)
{
    std::size_t primary = 0;
    double appSelf = 0.0;
    std::map<std::string, std::vector<double>> opMs;
    std::vector<double> regionMs(region_names().size(), 0.0);
    std::vector<double> regionCalls(region_names().size(), 0.0);
    double opSelfTotal = 0.0;
    double regions = 0.0, tasks = 0.0, serial = 0.0;
    std::vector<double> tracedWall, untracedWall;

    for (const auto &u : rec.units()) {
        if (u.kind == perUnit) {
            (u.traced ? tracedWall : untracedWall).push_back(u.wallMs);
        }
        if (!u.traced) continue;
        if (u.kind == perUnit) ++primary;
        appSelf += u.appSelfMs;
        double sum = u.appSelfMs;
        for (const auto &[name, ms] : u.opSelfMs) {
            sum += ms;
            opSelfTotal += ms;
        }
        // Conservation: the self times of a unit's spans add up to
        // its wall time (floating-point slack only).
        if (std::abs(sum - u.wallMs) > 1e-6 * std::max(1.0, u.wallMs)) {
            sheet.violation("unit " + std::to_string(u.id) + " (" + u.kind +
                            "): self times sum to " + short_num(sum) +
                            " ms, wall is " + short_num(u.wallMs) + " ms");
        }
        for (std::size_t r = 0; r < region_names().size(); ++r) {
            regionMs[r] += (u.after.regionUs[r] - u.before.regionUs[r]) / 1e3;
            regionCalls[r] += u.after.regionCalls[r] - u.before.regionCalls[r];
        }
        regions += static_cast<double>(u.after.pool.regions -
                                       u.before.pool.regions);
        tasks += static_cast<double>(u.after.pool.tasks - u.before.pool.tasks);
        serial += static_cast<double>(u.after.pool.serialRegions -
                                      u.before.pool.serialRegions);
    }
    // Per-call op durations (ops have no child spans, so self == span).
    for (const auto &s : rec.spans()) {
        if (s.parent >= 0) opMs[s.name].push_back((s.t1 - s.t0) / 1e3);
    }
    if (primary == 0) {
        sheet.violation("traced run recorded no " + perUnit + " units");
        return;
    }
    double per = static_cast<double>(primary);
    sheet.layer("app.self_ms", appSelf / per);
    for (const auto &op : span_ops()) {
        auto it = opMs.find(op);
        if (it == opMs.end()) continue;
        sheet.layer("ckks." + op + ".ms_p50", median(it->second));
        sheet.layer("ckks." + op + ".calls",
                    static_cast<double>(it->second.size()) / per);
    }
    for (const char *st :
         {"mod_raise", "coeff_to_slot", "eval_mod", "slot_to_coeff"}) {
        auto it = opMs.find(std::string("boot.") + st);
        if (it == opMs.end()) continue;
        sheet.layer(std::string("ckks.boot.") + st + ".ms_p50",
                    median(it->second));
    }
    double regionTotal = 0.0;
    for (std::size_t r = 0; r < region_names().size(); ++r) {
        sheet.layer("region." + region_names()[r] + ".ms", regionMs[r] / per);
        sheet.layer("region." + region_names()[r] + ".calls",
                    regionCalls[r] / per);
        regionTotal += regionMs[r];
    }
    sheet.layer("region.unattributed_ms", (opSelfTotal - regionTotal) / per);
    sheet.layer("parallel.regions", regions / per);
    sheet.layer("parallel.serial_share", regions > 0 ? serial / regions : 0);
    sheet.layer("parallel.tasks_per_region", regions > 0 ? tasks / regions : 0);
    if (!untracedWall.empty()) {
        sheet.layer("trace.overhead_ratio",
                    median(tracedWall) / median(untracedWall));
    }
}

// ------------------------------------------------------------ stamp & probes

namespace {

/// Integer spin work the optimizer cannot drop.
std::uint64_t
spin(std::uint64_t iters)
{
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/// Wall seconds for `threads` threads each running the same spin.
double
spin_wall(std::size_t threads, std::uint64_t iters)
{
    std::atomic<std::uint64_t> sink{0};
    double t0 = now_s();
    std::vector<std::thread> ts;
    for (std::size_t t = 0; t < threads; ++t) {
        ts.emplace_back([&] { sink += spin(iters); });
    }
    for (auto &t : ts) t.join();
    double dt = now_s() - t0;
    if (sink.load() == 42) std::printf(" ");
    return dt;
}

} // namespace

void
stamp_capacity(const std::string &when, Sheet &sheet)
{
    // Parallel capacity: equal spin work on nproc threads vs on one.
    // 1.0 means nproc free cores; a shared box reads higher.
    std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    const std::uint64_t iters = 20'000'000;
    // Warm up first: on a VM, vCPUs that sat idle take a few hundred
    // ms of load to come back, and a cold probe reads ~nproc.
    spin_wall(nproc, 5 * iters);
    std::vector<double> ratios;
    for (int rep = 0; rep < 3; ++rep) {
        double one = spin_wall(1, iters);
        double all = spin_wall(nproc, iters);
        ratios.push_back(all / one);
    }
    double ratio = median(ratios);
    sheet.stamp("spin_ratio_nproc_vs_1." + when, short_num(ratio));
    sheet.stamp("parallel_capacity_cores." + when,
                short_num(static_cast<double>(nproc) / ratio));
}

void
stamp_run(const Options &opt, Sheet &sheet)
{
    std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    sheet.stamp("workload", opt.workload);
    sheet.stamp("git_sha", opt.gitSha);
    sheet.stamp("seed", std::to_string(opt.seed));
    sheet.stamp("pool_threads",
                std::to_string(poseidon::parallel::num_threads()));
    sheet.stamp("simd", poseidon::kernels::level_name(
                            poseidon::kernels::active_level()));
    sheet.stamp("nproc", std::to_string(nproc));
    sheet.stamp("telemetry_enabled",
                poseidon::telemetry::enabled() ? "1" : "0");
    stamp_capacity("start", sheet);
}

void
calibrate_kernels(std::size_t n, Sheet &sheet)
{
    using namespace poseidon;
    unsigned logn = 0;
    while ((std::size_t(1) << logn) < n) ++logn;
    u64 q = generate_ntt_primes(n, 50, 1)[0];
    NttTable table(n, q);
    std::vector<u64> a(n), b(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = (i * 0x9E3779B97F4A7C15ull) % q;
        b[i] = (i * 0xC2B2AE3D27D4EB4Full + 7) % q;
    }
    // Enough repetitions for ~20 ms per probe at any ring size.
    std::size_t reps = std::max<std::size_t>(8, (std::size_t(1) << 22) /
                                                    (n * logn));
    std::vector<double> fwd, inv, mm;
    for (std::size_t r = 0; r < reps; ++r) {
        double t0 = now_s();
        table.forward(a.data());
        double t1 = now_s();
        table.inverse(a.data());
        double t2 = now_s();
        kernels::mul_mod_n(out.data(), a.data(), b.data(), n, q);
        double t3 = now_s();
        fwd.push_back((t1 - t0) * 1e6);
        inv.push_back((t2 - t1) * 1e6);
        mm.push_back((t3 - t2) * 1e9 / static_cast<double>(n));
    }
    sheet.layer("ntt.fwd_us", median(fwd));
    sheet.layer("ntt.inv_us", median(inv));
    sheet.layer("kernels.mulmod_ns_per_elem", median(mm));
    // Also in the stamp: the spin probe misses memory-bandwidth
    // contention, which these single-thread kernels feel.
    sheet.stamp("ntt_fwd_us.n" + std::to_string(n), short_num(median(fwd)));
    sheet.stamp("mulmod_ns_per_elem.n" + std::to_string(n),
                short_num(median(mm)));
    NttCacheStats cs = ntt_table_cache_stats();
    sheet.layer("ntt.table_cache.hits", static_cast<double>(cs.hits));
    sheet.layer("ntt.table_cache.misses", static_cast<double>(cs.misses));
}

} // namespace perfbench
