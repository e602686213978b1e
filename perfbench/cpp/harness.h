#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/**
 * @file
 * Shared machinery of the end-to-end benchmark: run options, the
 * span recorder behind the traced run, the per-layer probes read
 * around each unit, and the result sheet every workload fills in.
 *
 * A *unit* is what one workload repeats: a training iteration or a
 * bootstrap (helr_boot), a client request (ckks_client), a replay of
 * the job stream (model_fleet). Untraced units are timed with the
 * steady clock alone. Traced units also record a span per public
 * call (name, start, end, parent, unit id) through the global
 * telemetry::Tracer, so the library's own spans land in the same
 * Chrome trace, and snapshot the parallel-region histograms and the
 * pool counters before and after the unit.
 */

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir; ///< Chrome trace output directory ("" = none)
    std::string gitSha = "unknown";
};

/// Steady-clock seconds since an arbitrary epoch.
double now_s();

/// Exact nearest-rank quantile (telemetry::exact_quantile); 0 when empty.
double quantile(const std::vector<double> &xs, double q);
double median(const std::vector<double> &xs);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// The parallel regions the library names (common/parallel.h callers).
const std::vector<std::string>& region_names();

/// One recorded span. Times are microseconds on the tracer clock.
struct Span
{
    std::string name;
    std::uint64_t unit = 0;
    int parent = -1; ///< index into the recorder's spans, -1 = root
    double t0 = 0.0;
    double t1 = 0.0;
};

/// Region-histogram and pool-counter snapshot (traced units only).
struct LayerSnapshot
{
    std::vector<double> regionUs;     ///< per region_names() entry
    std::vector<double> regionCalls;  ///< per region_names() entry
    poseidon::parallel::PoolStats pool;

    static LayerSnapshot take();
};

/// Everything measured about one finished unit.
struct UnitRecord
{
    std::string kind;
    std::uint64_t id = 0;
    bool traced = false;
    double wallMs = 0.0;
    /// Traced only: self time of the unit span (wall minus its op
    /// spans) and of every op span, by op name.
    double appSelfMs = 0.0;
    std::map<std::string, double> opSelfMs;
    LayerSnapshot before;
    LayerSnapshot after;
};

/**
 * Times units and, when tracing is on for the current unit, records
 * spans around every public call made through op().
 */
class Recorder
{
  public:
    explicit Recorder(bool traceEnabled);
    ~Recorder();

    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /**
     * Start a unit. `traced` must be false when tracing is disabled.
     * The library records spans whenever the global tracer session is
     * live, so a run's traced units form one contiguous window: the
     * session starts with the first and stops at the next untraced
     * unit. Untraced units around the window are the baseline of
     * trace.overhead_ratio.
     */
    void begin_unit(const char *kind, bool traced);
    /// Finish the current unit and return (a copy of) its record.
    UnitRecord end_unit();

    /// Run `f` as one public call named `name` inside the current
    /// unit (a span when the unit is traced).
    template <class F>
    decltype(auto)
    op(const char *name, F &&f)
    {
        if (!live_) return f();
        Guard g(*this, name);
        return f();
    }

    const std::vector<UnitRecord>& units() const { return units_; }
    const std::vector<Span>& spans() const { return spans_; }

  private:
    struct Guard
    {
        Guard(Recorder &r, const char *name);
        ~Guard();
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;
        Recorder &rec;
        int idx;
    };

    int open_span(const char *name);
    void close_span(int idx);

    bool enabled_;
    bool sessionLive_ = false; ///< global Tracer session running
    bool sessionDone_ = false; ///< the traced window has ended
    bool live_ = false;        ///< current unit is traced
    std::uint64_t nextId_ = 1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::size_t unitFirstSpan_ = 0;
    double unitT0_ = 0.0;
    UnitRecord cur_;
    std::vector<UnitRecord> units_;
};

/// Unit of a metric plus its value.
struct Value
{
    double value = 0.0;
    std::string unit;
};

/**
 * The result sheet: the benchmark's end-to-end metrics (what the
 * final JSON line carries with --trace 0), its per-layer metrics
 * (--trace 1), the workload's own named metrics printed for people,
 * and the correctness verdicts.
 */
class Sheet
{
  public:
    Sheet();

    /// End-to-end metric (one of e2e_metrics()).
    void e2e(const std::string &name, double v, std::size_t samples,
             const std::string &what);
    /// Per-layer metric (must be one of per_layer_metrics()).
    void layer(const std::string &name, double v);
    /// A workload-named metric printed with its unit and sample count.
    void named(const std::string &name, double v, const std::string &unit,
               std::size_t samples, const std::string &what);
    /// A line of the run stamp.
    void stamp(const std::string &key, const std::string &value);

    /// Count one attempted unit and whether it passed its check.
    void unit_verdict(bool ok);
    /// Record a failed correctness gate (the run exits nonzero).
    void violation(const std::string &why);
    /// Record a passed gate (printed for people).
    void gate(const std::string &what);

    bool correct() const { return violations_.empty(); }

    /// Print the human report and the final JSON line; false when any
    /// gate failed or a reported metric is missing or not finite.
    bool print(bool trace) const;

  private:
    std::map<std::string, Value> e2e_;
    std::map<std::string, Value> layer_;
    std::vector<std::string> lines_;
    std::vector<std::string> gates_;
    std::vector<std::string> violations_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// Names and units of the end-to-end metrics, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& e2e_metrics();
/// Names and units of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/**
 * Fill the per-layer metrics every host workload derives from its
 * traced units: app.self_ms, ckks.<op>.{ms_p50,calls}, region.*,
 * parallel.* and trace.overhead_ratio. `perUnit` names the primary
 * unit kind whose count divides the per-unit totals (totals include
 * every traced unit, so bootstraps are amortized over iterations).
 * Also checks the self-time conservation of every traced unit.
 */
void fill_span_layers(const Recorder &rec, const std::string &perUnit,
                      Sheet &sheet);

/// Record the run stamp and the box's parallel capacity.
void stamp_run(const Options &opt, Sheet &sheet);

/**
 * Stamp the box's measured parallel capacity (`when` labels it): the
 * wall time of equal spin work on nproc threads over that on one
 * thread, and nproc divided by that ratio.
 */
void stamp_capacity(const std::string &when, Sheet &sheet);

/**
 * Time NttTable::forward/inverse and kernels::mul_mod_n at ring
 * degree `n` from outside the library, and read the NTT table cache.
 */
void calibrate_kernels(std::size_t n, Sheet &sheet);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
