// model_fleet: a seeded closed-loop multi-tenant job stream through
// cluster::ClusterRouter over 4 simulated hosts x 4 cards with
// locality placement, then one PoseidonSim::run + hw::profile pass
// over the Table VI traces. No host CKKS code runs here.
//
// The seed draws the stream: each tenant's job order, its think
// times, and which tenants run the paper workloads. The tenant
// population is fixed (priorities alternate, key footprints spread
// evenly over 0.5-1.5x a paper-scale key set), as are the stream's
// size and job mix, so host cost per job is comparable across seeds. The run
// replays the whole stream through a fresh router until --seconds
// pass; every replay must reproduce the first one's simulated results
// exactly. The end-to-end latency and throughput are the modeled
// cluster's, on the simulated clock; the simulator's host time is taken
// per wave of the stream (see replay()) and reported per layer.

#include <algorithm>
#include <memory>

#include "baselines/published.h"
#include "cluster/cluster.h"
#include "hw/profiler.h"
#include "isa/compiler.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace poseidon;

namespace {

constexpr std::size_t kHosts = 4;
constexpr std::size_t kCards = 4;
/// Closed-loop clients, one tenant each. Many short chains rather than
/// few long ones: each router round drains every host engine, and an
/// engine's drain re-walks its whole journal, so host cost grows with
/// rounds x journal length.
constexpr std::size_t kTenants = 128;
/// Small traces per tenant per replay (12 kinds, equal counts).
constexpr std::size_t kSmallPerTenant = 84;
/// Each paper workload appears this many times per replay.
constexpr std::size_t kPaperEach = 1;
constexpr int kSetupReps = 101;
constexpr std::size_t kTracedWaves = 16;
constexpr double kThinkCycles = 5e4;
constexpr const char *kAlertRule = "serve.queue_depth >= 2 => warn";

struct JobKind
{
    std::string name;
    isa::Trace trace;
    u64 reportDivisor = 1; ///< Table VI reports time / this
};

/// The compiled job pool: small op traces at N = 2^13..2^16, then the
/// four Table VI workloads at N = 2^16.
std::vector<JobKind>
compile_pool()
{
    std::vector<JobKind> pool;
    for (unsigned logn = 13; logn <= 16; ++logn) {
        isa::OpShape s;
        s.n = u64(1) << logn;
        s.limbs = 8 + 4 * (logn - 13);
        s.K = 1;
        s.dnum = 0;
        std::string tag = "n2^" + std::to_string(logn);
        JobKind ks{"cmult_rot." + tag, {}};
        isa::emit_cmult(ks.trace, s);
        isa::emit_rotation(ks.trace, s);
        JobKind pm{"pmult_add." + tag, {}};
        isa::emit_pmult(pm.trace, s);
        isa::emit_hadd(pm.trace, s);
        isa::emit_rescale(pm.trace, s);
        JobKind rot{"rot2." + tag, {}};
        isa::emit_rotation(rot.trace, s);
        isa::emit_rotation(rot.trace, s);
        pool.push_back(std::move(ks));
        pool.push_back(std::move(pm));
        pool.push_back(std::move(rot));
    }
    for (auto &w : workloads::paper_benchmarks()) {
        pool.push_back({w.name, std::move(w.trace), w.reportDivisor});
    }
    return pool;
}

constexpr std::size_t kSmallKinds = 12;
/// The Table VI workloads that follow them in the pool.
constexpr std::size_t kPaperKinds = 4;

struct Tenant
{
    std::string name;
    int priority = 0;
    double keyBytes = 0.0;
    std::vector<std::size_t> jobs; ///< pool indices, in order
    std::vector<double> think;     ///< cycles before each job
};

std::vector<Tenant>
make_stream(std::uint64_t seed)
{
    Rng rng(seed, 0x464C4545);
    double baseKey = hw::eval_key_bytes(65536.0, 44.0, 3.0, 1.0) * 8.0;
    std::vector<Tenant> ts(kTenants);
    for (std::size_t t = 0; t < kTenants; ++t) {
        ts[t].name = "tenant" + std::to_string(t);
        ts[t].priority = static_cast<int>(t % 2);
        ts[t].keyBytes =
            baseKey * (0.5 + static_cast<double>(t) / kTenants);
        for (std::size_t k = 0; k < kSmallPerTenant; ++k) {
            ts[t].jobs.push_back(k % kSmallKinds);
        }
    }
    for (auto &t : ts) {
        for (std::size_t i = t.jobs.size(); i > 1; --i) {
            std::swap(t.jobs[i - 1], t.jobs[rng.below(i)]);
        }
    }
    // Paper workloads close the chains of distinct seeded tenants. A
    // paper job runs for seconds on the simulated clock, so anywhere
    // else in a chain it would push the rest of that chain seconds
    // later; last, every seed's stream has the same shape: 84 waves of
    // small jobs, then the paper wave.
    std::vector<std::size_t> order(kTenants);
    for (std::size_t t = 0; t < kTenants; ++t) order[t] = t;
    for (std::size_t i = 0; i < kPaperKinds * kPaperEach; ++i) {
        std::swap(order[i], order[i + rng.below(kTenants - i)]);
        ts[order[i]].jobs.push_back(kSmallKinds + i % kPaperKinds);
    }
    for (auto &t : ts) {
        for (std::size_t i = 0; i < t.jobs.size(); ++i) {
            t.think.push_back(rng.uniform(0.0, kThinkCycles));
        }
    }
    return ts;
}

cluster::ClusterConfig
fleet_config(const std::vector<Tenant> &ts)
{
    cluster::ClusterConfig cfg;
    cfg.hosts = kHosts;
    cfg.placement = cluster::Placement::Locality;
    // Card 0 of every host has a fixed-seed HBM fault rate and no
    // working ECC, so a flipped word fails the attempt: jobs fail over
    // to the host's clean cards (never twice onto the faulted one) and
    // the breaker quarantines and probes card 0. The fault model's
    // cost grows with the flips it draws, hence the low rate.
    hw::HwConfig faulty = cfg.host.card;
    faulty.faults.ber = 1e-8;
    faulty.faults.secded = false;
    cfg.host.fleet = {faulty};
    cfg.host.fleet.resize(kCards, cfg.host.card);
    cfg.host.journal = true;
    cfg.host.tsdbCadenceCycles = 1e6;
    cfg.host.alertRules = kAlertRule;
    for (const auto &t : ts) cfg.tenantKeyBytes[t.name] = t.keyBytes;
    // Key cache of ~40 average tenants per host (32 per host when
    // spread evenly), so placement decides how often keys move.
    cfg.keyCacheShare =
        40.0 * hw::eval_key_bytes(65536.0, 44.0, 3.0, 1.0) * 8.0 /
        (static_cast<double>(kCards) * cfg.host.card.hbm_capacity_bytes());
    return cfg;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/// Simulated outcome of one replay (must repeat exactly).
struct ReplayOutcome
{
    std::vector<double> latencyCycles; ///< completed jobs, wave by wave
    std::size_t resolved = 0;
    std::size_t notCompleted = 0;
    cluster::ClusterStats stats;
    std::uint64_t journalHash = 0; ///< FNV-1a of the cluster journal dump
    /// Host time of each wave, per job in the wave.
    std::vector<double> perJobMs;
    double wallS = 0.0; ///< sum of the waves' wall times
    /// The small-job stream (every wave but the paper jobs): jobs it
    /// completed, and the cycle its last job resolved.
    std::size_t streamCompleted = 0;
    double streamEndCycle = 0.0;

    bool same_sim(const ReplayOutcome &o) const
    {
        return latencyCycles == o.latencyCycles &&
               journalHash == o.journalHash &&
               stats.horizonCycles == o.stats.horizonCycles &&
               stats.completed == o.stats.completed;
    }
};

/**
 * Run the stream through `router` in waves. Wave k holds every
 * tenant's k-th job, arriving its think time after the tenant's
 * previous job finished, and one drain() resolves it: a closed loop
 * where each tenant waits for its previous job. Each wave is a timed
 * unit, so one replay gives 85 samples of host time per job. The
 * first `tracedWaves` waves are traced.
 */
void
replay(cluster::ClusterRouter &router, const std::vector<Tenant> &ts,
       const std::vector<JobKind> &pool, Recorder &rec,
       std::size_t tracedWaves, ReplayOutcome &out)
{
    std::vector<double> readyAt(ts.size(), 0.0);
    std::vector<std::size_t> who;
    std::vector<cluster::ClusterTicket> tickets;
    for (std::size_t k = 0;; ++k) {
        who.clear();
        tickets.clear();
        for (std::size_t t = 0; t < ts.size(); ++t) {
            if (k < ts[t].jobs.size()) who.push_back(t);
        }
        if (who.empty()) break;
        rec.begin_unit("wave", k < tracedWaves);
        rec.op("cluster.submit", [&] {
            for (std::size_t t : who) {
                const Tenant &ten = ts[t];
                const JobKind &kind = pool[ten.jobs[k]];
                serve::JobSpec spec;
                spec.tenant = ten.name;
                spec.name = kind.name;
                spec.trace = kind.trace;
                spec.priority = ten.priority;
                spec.arrivalCycle = readyAt[t] + ten.think[k];
                tickets.push_back(router.submit(std::move(spec)));
            }
        });
        rec.op("cluster.drain", [&] { router.drain(); });
        UnitRecord u = rec.end_unit();
        out.perJobMs.push_back(u.wallMs / static_cast<double>(who.size()));
        out.wallS += u.wallMs / 1e3;
        for (std::size_t i = 0; i < who.size(); ++i) {
            const serve::JobResult &r = tickets[i].result.get();
            bool done = r.state == serve::JobState::Completed;
            ++out.resolved;
            if (done) {
                out.latencyCycles.push_back(r.latency_cycles());
            } else {
                ++out.notCompleted;
            }
            if (ts[who[i]].jobs[k] < kSmallKinds) {
                out.streamCompleted += done ? 1 : 0;
                out.streamEndCycle = std::max(out.streamEndCycle,
                                              r.finishCycle);
            }
            readyAt[who[i]] = r.finishCycle;
        }
    }
}

} // namespace

void
run_model_fleet(const Options &opt, double digestPrecisionBits,
                Sheet &sheet)
{
    std::vector<Tenant> tenants = make_stream(opt.seed);
    std::size_t jobsPerReplay = 0;
    for (const auto &t : tenants) jobsPerReplay += t.jobs.size();

    std::vector<double> setupS, compileMs;
    std::vector<JobKind> pool;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        double t0 = now_s();
        pool = compile_pool();
        double t1 = now_s();
        cluster::ClusterRouter router(fleet_config(tenants));
        double t2 = now_s();
        setupS.push_back(t2 - t0);
        compileMs.push_back((t1 - t0) * 1e3);
    }
    calibrate_kernels(std::size_t(1) << 16, sheet);

    Recorder rec(opt.trace);
    std::vector<double> perJobMs, replayJobsPerS;
    ReplayOutcome first, last;
    std::unique_ptr<cluster::ClusterRouter> lastRouter;
    bool tracedDone = false;
    std::vector<double> tracedWaveMs;
    std::vector<std::vector<double>> untracedWaveMs;
    double dumpMs = 0.0, journalBytes = 0.0, tsdbBytes = 0.0;
    double t0 = now_s();
    for (std::size_t r = 0;; ++r) {
        // A traced run traces the first kTracedWaves waves of one
        // replay after 40% of the run. Only a window: each engine
        // drain re-exports every job flow in its journal to a live
        // tracer, so a fully traced replay writes ~170 MB.
        bool traced = opt.trace && !tracedDone && r >= 1 &&
                      now_s() - t0 >= 0.4 * opt.seconds;
        auto router =
            std::make_unique<cluster::ClusterRouter>(fleet_config(tenants));
        ReplayOutcome out;
        out.latencyCycles.reserve(jobsPerReplay);
        replay(*router, tenants, pool, rec, traced ? kTracedWaves : 0, out);
        if (traced) {
            tracedDone = true;
            tracedWaveMs = out.perJobMs;
        } else {
            untracedWaveMs.push_back(out.perJobMs);
        }
        perJobMs.insert(perJobMs.end(), out.perJobMs.begin(),
                        out.perJobMs.end());
        replayJobsPerS.push_back(static_cast<double>(out.resolved) /
                                 out.wallS);

        double d0 = now_s();
        out.stats = router->stats();
        std::string journal = router->journal().to_jsonl();
        // The dumps repeat with the simulation, so the first replay's
        // stand for all; later replays skip the host journals and TSDB
        // (~0.3 s a replay), which leaves more of the run to measure.
        if (r == 0) {
            std::size_t dumpBytes = journal.size();
            for (std::size_t h = 0; h < kHosts; ++h) {
                if (const auto *e = router->host_engine(h)) {
                    dumpBytes += e->journal().to_jsonl().size();
                }
            }
            tsdbBytes =
                static_cast<double>(router->cluster_tsdb().to_jsonl().size());
            dumpMs = (now_s() - d0) * 1e3;
            journalBytes = static_cast<double>(dumpBytes);
        }
        out.journalHash = fnv1a(journal);

        bool conserved = out.stats.conserved() &&
                         out.resolved == jobsPerReplay &&
                         out.stats.submitted == jobsPerReplay;
        if (!conserved) {
            sheet.violation("replay " + std::to_string(r) +
                            ": ClusterStats not conserved or jobs lost");
        }
        for (std::size_t j = 0; j < out.resolved; ++j) {
            sheet.unit_verdict(j >= out.notCompleted);
        }
        if (r == 0) {
            first = out;
        } else if (!first.same_sim(out)) {
            sheet.violation("replay " + std::to_string(r) +
                            " diverged from replay 0 on the simulated clock");
        }
        if (now_s() - t0 >= opt.seconds && r >= 1 &&
            (!opt.trace || tracedDone)) {
            last = std::move(out);
            lastRouter = std::move(router);
            break;
        }
    }

    // Per-host engine statistics of the final replay.
    double attempts = 0, retries = 0, batches = 0, jobs = 0, occ = 0,
           journalEvents = 0, samples = 0, edges = 0;
    std::size_t spawned = 0;
    for (std::size_t h = 0; h < kHosts; ++h) {
        const auto *e = lastRouter->host_engine(h);
        if (!e) continue;
        ++spawned;
        serve::ServeStats st = e->stats();
        double done = static_cast<double>(st.completed + st.failed +
                                          st.expired + st.shed);
        jobs += done;
        retries += static_cast<double>(st.retries);
        attempts += done + static_cast<double>(st.retries + st.probes);
        batches += static_cast<double>(st.batches);
        occ += st.fleet_occupancy();
        journalEvents += static_cast<double>(e->journal().size());
        for (const auto &ser : e->tsdb().series()) {
            samples += static_cast<double>(ser->size());
        }
        for (const auto &ser : e->tsdb().histogram_series()) {
            samples += static_cast<double>(ser->size());
        }
        edges += static_cast<double>(e->alert_log().size());
    }
    sheet.layer("serve.attempts_per_job", attempts / jobs);
    sheet.layer("serve.retry_share", retries / attempts);
    sheet.layer("serve.jobs_per_batch", attempts / batches);
    sheet.layer("serve.fleet_occupancy",
                spawned ? occ / static_cast<double>(spawned) : 0.0);
    sheet.layer("serve.journal_events_per_job", journalEvents / jobs);
    sheet.layer("serve.tsdb_samples", samples);
    sheet.layer("serve.alert_edges", edges);
    if (opt.trace) {
        // Host price of one attempt: PoseidonSim::run over the stream's
        // traces on the hosts' card model.
        hw::PoseidonSim sim(lastRouter->config().host.card);
        double p0 = now_s();
        for (const auto &t : tenants) {
            for (std::size_t k : t.jobs) sim.run(pool[k].trace);
        }
        double priceUs = (now_s() - p0) * 1e6 /
                         static_cast<double>(jobsPerReplay);
        sheet.layer("hw.price_us_per_attempt", priceUs);
        sheet.layer("cluster.bookkeeping_host_ms",
                    (last.wallS * 1e3 - attempts * priceUs / 1e3) / jobs);
    }

    const cluster::ClusterStats &cs = last.stats;
    double toUs = 1e6 / (cs.clockGHz * 1e9);
    double simJobsPerS = static_cast<double>(cs.completed) /
                         (cs.horizonCycles / (cs.clockGHz * 1e9));
    double latP50 = quantile(last.latencyCycles, 0.5) * toUs;
    double latP90 = quantile(last.latencyCycles, 0.9) * toUs;
    double latP999 = quantile(last.latencyCycles, 0.999) * toUs;
    if (last.latencyCycles.size() < 10000) {
        sheet.violation("model_fleet completed only " +
                        std::to_string(last.latencyCycles.size()) +
                        " jobs per replay; p99.9 needs 1e4");
    }

    // Table VI traces: one priced run + attribution each.
    hw::PoseidonSim paperSim;
    double simBootMs = 0.0, simLrMs = 0.0;
    for (std::size_t w = kSmallKinds; w < pool.size(); ++w) {
        const std::string &name = pool[w].name;
        bool isBoot = name == "Packed Bootstrapping";
        bool isLr = name == "LR";
        if (!isBoot && !isLr) continue;
        hw::SimTimeline tl;
        hw::SimResult r = paperSim.run(pool[w].trace, &tl);
        hw::ProfileReport rep = hw::profile(tl, r, paperSim.config(), name);
        double ms = r.seconds * 1e3 / static_cast<double>(pool[w].reportDivisor);
        std::string p = isBoot ? "hw.boot." : "hw.lr.";
        sheet.layer(p + "compute_exposed_share",
                    rep.total.compute_exposed_share());
        sheet.layer(p + "memory_exposed_share", rep.total.mem_exposed_share());
        sheet.layer(p + "overlapped_share", rep.total.overlapped_share());
        sheet.layer(p + "hbm_bw_util",
                    rep.total.bandwidth_utilization(paperSim.config()));
        sheet.layer(p + "ntt_occupancy", rep.total.ntt_occupancy());
        (isBoot ? simBootMs : simLrMs) = ms;
    }
    auto paper = baselines::bench_times("Poseidon");
    sheet.layer("hw.paper_ratio.boot", simBootMs / paper.bootstrapping);
    sheet.layer("hw.paper_ratio.lr", simLrMs / paper.lr);

    double instrs = 0.0;
    for (const auto &t : tenants) {
        for (std::size_t k : t.jobs) {
            instrs += static_cast<double>(pool[k].trace.size());
        }
    }

    std::size_t replays = replayJobsPerS.size();
    double jobsPerHostS = median(replayJobsPerS);
    // The modeled cluster's job latency and throughput, on the
    // simulated clock. The paper jobs' final wave is left out of the
    // throughput: it sets the replay's horizon, and jobs per second over
    // that horizon took one of two values ~40% apart across seeds.
    double streamJobsPerS = static_cast<double>(last.streamCompleted) /
                            (last.streamEndCycle / (cs.clockGHz * 1e9));
    sheet.e2e("setup_s", median(setupS), setupS.size(),
              "trace compile + router construction, median of set-ups");
    sheet.e2e("peak_rss_mb", peak_rss_mb(), 1, "ru_maxrss");
    sheet.e2e("unit_ms_p50", latP50 / 1e3, last.latencyCycles.size(),
              "sim ms per job, router arrival to resolution");
    sheet.e2e("units_per_s", streamJobsPerS, last.streamCompleted,
              "small jobs completed per simulated second of the stream");
    sheet.e2e("precision_bits", digestPrecisionBits, 1,
              "pinned-digest pipeline (the only decrypted unit here)");
    sheet.named("sim_jobs_per_host_s", jobsPerHostS, "1/s", replays,
                "simulated jobs resolved per host wall second, median "
                "over replays");
    sheet.named("sim_jobs_per_s", simJobsPerS, "1/s (sim)", cs.completed,
                "completed jobs per simulated second");
    sheet.named("sim_latency_us_p50", latP50, "us (sim)",
                last.latencyCycles.size(), "router arrival to resolution");
    sheet.named("sim_latency_us_p999", latP999, "us (sim)",
                last.latencyCycles.size(), "router arrival to resolution");
    sheet.named("sim_boot_ms", simBootMs, "ms (sim)", 1,
                "Packed Bootstrapping, N=2^16 (Table VI)");
    sheet.named("sim_lr_iter_ms", simLrMs, "ms (sim)", 1,
                "HELR per iteration, N=2^16 (Table VI)");
    sheet.named("host_ms_per_job_p50", median(perJobMs), "ms",
                perJobMs.size(), "median over waves");
    sheet.named("host_ms_per_job_p90", quantile(perJobMs, 0.9), "ms",
                perJobMs.size(), "p90 over waves");
    sheet.named("unit_ms_p90", latP90 / 1e3, "ms (sim)",
                last.latencyCycles.size(),
                "sim ms per job, router arrival to resolution");
    sheet.layer("unit_ms_p90", latP90 / 1e3);
    sheet.layer("sim_jobs_per_host_s", jobsPerHostS);
    sheet.gate("ClusterStats::conserved() on every replay");
    sheet.gate("simulated results identical across " +
               std::to_string(replays) + " replays");

    sheet.layer("sim_jobs_per_s", simJobsPerS);
    sheet.layer("sim_latency_us_p50", latP50);
    sheet.layer("sim_latency_us_p999", latP999);
    sheet.layer("sim_boot_ms", simBootMs);
    sheet.layer("sim_lr_iter_ms", simLrMs);
    sheet.layer("isa.compile_ms", median(compileMs));
    sheet.layer("isa.instrs_per_job",
                instrs / static_cast<double>(jobsPerReplay));
    sheet.layer("cluster.locality_hit_rate", cs.locality_hit_rate());
    sheet.layer("cluster.key_transfer_mb",
                cs.keyTransferBytes / (1024.0 * 1024.0));
    sheet.layer("cluster.reroutes", static_cast<double>(cs.rerouted));
    sheet.layer("telemetry.journal_mb", journalBytes / (1024.0 * 1024.0));
    sheet.layer("telemetry.tsdb_mb", tsdbBytes / (1024.0 * 1024.0));
    sheet.layer("telemetry.dump_ms", dumpMs);
    if (opt.trace) {
        fill_span_layers(rec, "wave", sheet);
        // Waves grow costlier through a replay and only the first
        // kTracedWaves are traced, so compare each traced wave with
        // the same wave of the untraced replays.
        std::vector<double> ratios;
        for (std::size_t k = 0; k < kTracedWaves; ++k) {
            std::vector<double> same;
            for (const auto &w : untracedWaveMs) same.push_back(w[k]);
            ratios.push_back(tracedWaveMs[k] / median(same));
        }
        sheet.layer("trace.overhead_ratio", median(ratios));
    }
}

} // namespace perfbench
