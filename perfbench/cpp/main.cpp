// poseidon_perfbench — the repository's end-to-end benchmark.
//
//   poseidon_perfbench --workload helr_boot|ckks_client|model_fleet
//                      --seed N --seconds S --trace 0|1
//                      [--trace-dir DIR] [--git-sha SHA]
//
// Prints a stamped human report, then one JSON line:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1
// when any correctness gate fails, 2 on a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "checks.h"
#include "common/parallel.h"
#include "telemetry/tracer.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "poseidon_perfbench: %s\n"
                 "usage: poseidon_perfbench --workload "
                 "helr_boot|ckks_client|model_fleet --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR] [--git-sha SHA]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !v.empty();
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = end && *end == '\0' && opt.seconds > 0.0;
        } else if (a == "--trace") {
            haveTrace = v == "0" || v == "1";
            opt.trace = v == "1";
        } else if (a == "--trace-dir") {
            opt.traceDir = v;
        } else if (a == "--git-sha") {
            opt.gitSha = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace) {
        return usage("--seed, --seconds and --trace are required");
    }
    if (opt.workload != "helr_boot" && opt.workload != "ckks_client" &&
        opt.workload != "model_fleet") {
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    }

    // A pool of half the cores. On a shared VM a pool of nproc threads
    // waits at every region barrier for whichever core a co-tenant
    // holds: on a 4-vCPU VM with two competing busy threads, ckks_client
    // requests slowed ~30% at 4 threads and ~2% at 2 (README.md, "Run
    // rules").
    poseidon::parallel::set_num_threads(
        std::max(1u, std::thread::hardware_concurrency() / 2));

    Sheet sheet;
    try {
        stamp_run(opt, sheet);
        double digestBits = check_pinned_digest(sheet);
        if (opt.workload == "helr_boot") {
            run_helr_boot(opt, sheet);
        } else if (opt.workload == "ckks_client") {
            run_ckks_client(opt, sheet);
        } else {
            run_model_fleet(opt, digestBits, sheet);
        }
        stamp_capacity("end", sheet);
        // One Chrome trace: the benchmark's spans beside the library's.
        std::string path = opt.traceDir + "/" + opt.workload + ".trace.json";
        if (opt.trace && !opt.traceDir.empty() &&
            !poseidon::telemetry::Tracer::global().write_chrome_trace(path)) {
            sheet.violation("cannot write " + path);
        }
    } catch (const std::exception &e) {
        // A throwing unit is a failed unit; nothing after it is measured.
        sheet.unit_verdict(false);
        sheet.violation(std::string("exception: ") + e.what());
    }
    return sheet.print(opt.trace) ? 0 : 1;
}
