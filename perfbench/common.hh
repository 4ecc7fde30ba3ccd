/**
 * @file
 * Shared plumbing of the g5perf benchmark driver: the seeded input
 * generator, the benchmark's own layer spans, metric deltas, and the
 * Workload interface every workload implements.
 *
 * One round of a workload is: set up an empty directory (several
 * times, to sample set-up time), launch the workload cold, close and
 * reopen the workspace database, launch it again warm, and verify the
 * simulated results against expectations computed here, apart from
 * the program.
 */

#ifndef G5PERF_COMMON_HH
#define G5PERF_COMMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "art/artifact.hh"
#include "base/json.hh"
#include "base/metrics.hh"
#include "base/tracing.hh"
#include "base/wallclock.hh"
#include "sim/isa/program.hh"

namespace g5perf
{

using g5::Json;

/** Name of the scheduler probe's no-op task. */
constexpr const char *noopTaskName = "perfbench-noop";

/** Worker count of every workload, from the command line (run.py
 *  passes a fixed count, never above nproc). */
extern unsigned benchWorkers;

/** splitmix64: the benchmark's own input generator. */
class SeededRng
{
  public:
    explicit SeededRng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state;
};

/**
 * A span around one call into a program layer ("perfbench" category).
 * Records into the chrome trace when tracing is on and always measures
 * its own duration, so untraced rounds pay one relaxed load per span.
 */
class LayerSpan
{
  public:
    explicit LayerSpan(const char *name)
        : span(name, "perfbench"), start(g5::monotonicSeconds())
    {}

    double seconds() const { return g5::monotonicSeconds() - start; }

  private:
    g5::tracing::Span span;
    double start;
};

inline std::int64_t
counterValue(const char *name)
{
    return g5::metrics::counter(name).value();
}

/** Counter deltas across one stretch of work. */
class CounterDelta
{
  public:
    explicit CounterDelta(std::vector<const char *> names);
    /** @return counter value now minus at construction. */
    std::int64_t operator[](const char *name) const;

  private:
    std::map<std::string, std::int64_t> before;
};

/** Outcome of one launch of a workload (cold or warm). */
struct PassStats
{
    double seconds = 0;       ///< first create*Run .. last terminal doc
    std::int64_t runs = 0;    ///< runs completed (throughput numerator)
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** Per-run creation times in launch order (art layer), seconds. */
    std::vector<double> createSeconds;
};

/** Named pass/fail verdicts of one round. */
class Checks
{
  public:
    void add(const std::string &name, bool ok, const std::string &detail);
    bool allOk() const;
    Json toJson() const { return list; }

  private:
    Json list = Json::array();
};

/** One workload: owns its workspace between passes. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Materialize images and register every artifact in @p dir
     * (workspace files under dir/ws, database in dir/db). Called on
     * an empty directory for set-up timing, and again on the same
     * directory to reopen the database for the warm pass.
     */
    virtual void setup(const std::string &dir) = 0;

    /** Drop the workspace, closing its database. */
    virtual void close() = 0;

    /** Launch the whole workload (@p pass 1 = cold, 2 = warm). */
    virtual PassStats launch(int pass) = 0;

    /**
     * Verify the last launch and fill its simulated-statistics digest,
     * which every pass of every round must reproduce exactly.
     */
    virtual void verify(int pass, Checks &checks, Json &digest) = 0;

    /** The open workspace database. */
    virtual g5::art::ArtifactDb &adb() = 0;

    /** Warm passes per round, each in its own process. */
    virtual int warmPasses() const { return 3; }

    /** Collection holding the workload's run documents. */
    virtual std::string runsCollection() const { return "runs"; }

    /** Shader cycles and host seconds spent in GpuModel::run. */
    virtual std::pair<double, double> gpuWork() const { return {0, 0}; }
};

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** The error-study workload program: an accumulator loop. */
g5::sim::isa::ProgramPtr errStudyProgram(int iters);

/** Mean of the first (@p last false) or last tenth of @p v, in us. */
double tenthMeanMicros(const std::vector<double> &v, bool last);

double median(std::vector<double> v);

/** Bytes of every regular file under @p dir. */
std::uint64_t dirBytes(const std::string &dir);

/**
 * Per-layer probes of one traced round (see README.md): direct calls
 * into each module on the workload's own inputs, made after the warm
 * pass with the workspace still open. Closes the workspace.
 */
Json probeLayers(Workload &w, const std::string &dir);

} // namespace g5perf

#endif // G5PERF_COMMON_HH
