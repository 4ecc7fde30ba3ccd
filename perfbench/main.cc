/**
 * @file
 * g5perf: one step of a benchmark round, reported as a JSON line on
 * stdout. perfbench/run.py builds this binary and runs the steps.
 *
 * Usage: g5perf <workload> <seed> <workers> <dir> cold|warm
 *        g5perf <workload> <seed> <workers> <dir> trace <trace.json>
 *
 * <workers> is the worker count of every Tasks queue and scheduler
 * probe (under G5_WORKERS, run.py sets the same count there).
 *
 * cold sets a workspace up eight times from empty directories under
 * <dir> (each a set-up time sample; the last, <dir>/work, is kept) and
 * launches the workload against the empty database. warm reopens
 * <dir>/work, as a second invocation of the launch script would, and
 * launches the same workload again. Every pass is verified against the
 * paper's claims. trace runs a warm-up, an untraced and a traced round
 * (cold and warm passes) in one process; the traced round records a
 * chrome trace and adds the per-layer probes (see README.md).
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "art/ckpt.hh"
#include "base/logging.hh"
#include "common.hh"

using namespace g5perf;
using g5::Json;

namespace
{

/** Cumulative buckets of a histogram snapshot, by numeric bound. */
std::vector<std::pair<double, double>>
buckets(const Json &snap)
{
    std::vector<std::pair<double, double>> out;
    if (!snap.contains("buckets"))
        return out;
    for (const auto &kv : snap.at("buckets").asObject()) {
        double bound = kv.first == "+Inf" ? 1e300
                                          : std::stod(kv.first.substr(2));
        out.emplace_back(bound, double(kv.second.asInt()));
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Quantile @p q of the observations between two snapshots of one
 * histogram, interpolated linearly inside its bucket.
 */
double
histogramQuantile(const Json &before, const Json &after, double q)
{
    auto b = buckets(before), a = buckets(after);
    if (a.empty())
        return 0;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        a[i].second -= b[i].second;
    double total = a.back().second;
    if (total <= 0)
        return 0;
    double target = q * total, lo = 0, prev = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double hi = a[i].first > 1e299 ? lo : a[i].first;
        if (a[i].second >= target) {
            double span = a[i].second - prev;
            return lo + (hi - lo) * (span > 0 ? (target - prev) / span : 1);
        }
        lo = hi;
        prev = a[i].second;
    }
    return lo;
}

/**
 * Median duration (ms) of the complete events named @p prefix*, except
 * the scheduler probe's no-op tasks.
 */
double
spanMedianMs(const Json &trace, const std::string &prefix)
{
    std::vector<double> d;
    if (!trace.contains("traceEvents"))
        return 0;
    for (const Json &e : trace.at("traceEvents").asArray()) {
        std::string name = e.getString("name", "");
        if (e.getString("ph", "") == "X" && name.rfind(prefix, 0) == 0 &&
            name.find(noopTaskName) == std::string::npos)
            d.push_back(e.getDouble("dur") / 1e3);
    }
    return median(d);
}

Json
passJson(const char *name, const PassStats &p)
{
    return Json::object({{"pass", Json(name)},
                         {"seconds", Json(p.seconds)},
                         {"runs", Json(p.runs)},
                         {"attempted", Json(p.attempted)},
                         {"failed", Json(p.failed)}});
}

/** Append one pass's statistics, checks and digest to @p report. */
void
addPass(Workload &w, int pass, const PassStats &stats, Json &report)
{
    Checks checks;
    Json digest = Json::object();
    w.verify(pass, checks, digest);
    report["passes"].push(passJson(pass == 1 ? "cold" : "warm", stats));
    Json list = checks.toJson();
    for (const Json &c : list.asArray())
        report["checks"].push(c);
    report["digests"].push(digest);
}

Json
newReport(const std::string &workload)
{
    return Json::object({{"workload", Json(workload)},
                         {"passes", Json::array()},
                         {"checks", Json::array()},
                         {"digests", Json::array()}});
}

/** Set-ups per cold process: a single one lasts a few milliseconds. */
constexpr int setupSamples = 8;

/**
 * Set up setupSamples times from empty directories (each one a setup_s
 * sample; the last, <root>/work, is kept), then launch cold.
 */
PassStats
coldPass(Workload &w, const std::string &root, Json &report)
{
    Json setup_s = Json::array();
    for (int i = 0; i < setupSamples; ++i) {
        w.close();
        std::string dir = root + (i + 1 < setupSamples
                                      ? "/setup" + std::to_string(i)
                                      : std::string("/work"));
        LayerSpan span("resources+art:workspace setup");
        w.setup(dir);
        setup_s.push(span.seconds());
    }
    report["setup_s"] = setup_s;
    g5::art::BootCheckpoints::instance().dropMemoryCache();
    PassStats cold = w.launch(1);
    addPass(w, 1, cold, report);
    return cold;
}

/**
 * What a second invocation of the launch script pays: the workspace
 * reopened from disk, no in-process checkpoints.
 */
void
warmPass(Workload &w, const std::string &root, Json &report)
{
    w.close();
    g5::art::BootCheckpoints::instance().dropMemoryCache();
    w.setup(root + "/work");
    PassStats warm = w.launch(2);
    addPass(w, 2, warm, report);
}

/**
 * A cold pass and the warm passes in one process, with the per-layer
 * figures when @p traced (the counters cover every pass, the probes
 * follow).
 */
Json
tracedRound(const std::string &workload, std::uint64_t seed,
            const std::string &root, bool traced)
{
    auto w = makeWorkload(workload, seed);
    Json report = newReport(workload);
    const char *counters[] = {"db.wal.bytesAppended", "scheduler.ipc.bytes",
                              "scheduler.tasks.retries"};
    auto &commit = g5::metrics::histogram("db.wal.commitSeconds");
    Json commit_before = commit.snapshot();
    CounterDelta round_delta({std::begin(counters), std::end(counters)});
    CounterDelta cold_delta({"art.ckpt.misses"});
    PassStats cold = coldPass(*w, root, report);
    std::int64_t ckpt_boots = cold_delta["art.ckpt.misses"];
    std::int64_t restored = 0;
    w->adb().runs().forEach([&](const Json &d) {
        restored += d.contains("restoredBootHash") ? 1 : 0;
    });
    // The same passes as the measured rounds, so the failed share of a
    // traced run equals theirs.
    std::int64_t cache_hits = 0;
    for (int i = 0; i < w->warmPasses(); ++i) {
        CounterDelta warm_delta({"art.runCache.hits"});
        warmPass(*w, root, report);
        cache_hits = warm_delta["art.runCache.hits"];
    }
    if (!traced)
        return report;

    Json layers = Json::object();
    layers["art.create_run_us.first"] =
        tenthMeanMicros(cold.createSeconds, false);
    layers["art.create_run_us.last"] =
        tenthMeanMicros(cold.createSeconds, true);
    layers["art.cache_hits"] = cache_hits;
    layers["art.ckpt_boots"] = ckpt_boots;
    layers["art.ckpt_restored_runs"] = restored;
    Json commit_after = commit.snapshot();
    layers["db.commit_ms.p50"] =
        1e3 * histogramQuantile(commit_before, commit_after, 0.50);
    layers["db.commit_ms.p99"] =
        1e3 * histogramQuantile(commit_before, commit_after, 0.99);
    layers["db.wal_bytes"] = round_delta["db.wal.bytesAppended"];
    layers["scheduler.ipc_bytes"] = round_delta["scheduler.ipc.bytes"];
    layers["scheduler.retries"] = round_delta["scheduler.tasks.retries"];
    Json probes = probeLayers(*w, root + "/work");
    for (const auto &kv : probes.asObject())
        layers[kv.first] = kv.second;
    report["layers"] = layers;
    return report;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string mode = argc > 5 ? argv[5] : "";
    if (!((argc == 6 && (mode == "cold" || mode == "warm")) ||
          (argc == 7 && mode == "trace"))) {
        std::fprintf(stderr,
                     "usage: g5perf <workload> <seed> <workers> <dir> "
                     "cold|warm\n"
                     "       g5perf <workload> <seed> <workers> <dir> "
                     "trace <trace.json>\n");
        return 2;
    }
    std::string workload = argv[1];
    std::uint64_t seed = std::stoull(argv[2]);
    benchWorkers = unsigned(std::stoul(argv[3]));
    std::string root = argv[4];
    auto w = makeWorkload(workload, seed);
    if (!w) {
        std::fprintf(stderr, "g5perf: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    g5::setQuiet(true);

    auto emit = [](const Json &report) {
        std::printf("%s\n", report.dump().c_str());
        std::fflush(stdout);
    };
    Json report = newReport(workload);
    if (mode == "cold") {
        coldPass(*w, root, report);
        report["warmPasses"] = w->warmPasses();
        emit(report);
        return 0;
    }
    if (mode == "warm") {
        warmPass(*w, root, report);
        w->close();
        report["dbBytes"] = std::int64_t(dirBytes(root + "/work/db"));
        emit(report);
        return 0;
    }

    // trace: a warm-up round, an untraced round, then the traced one;
    // the last two differ only in tracing, so their difference is its
    // cost.
    tracedRound(workload, seed, root + "/warmup", false);
    emit(tracedRound(workload, seed, root + "/untraced", false));
    g5::tracing::start(argv[6]);
    Json traced = tracedRound(workload, seed, root + "/traced", true);
    Json trace = g5::tracing::stop();
    // In-process runs record run: spans; forked ones reach the parent
    // only as task: spans; GPU kernels as the benchmark's own spans.
    double run_ms = spanMedianMs(trace, "run:");
    if (run_ms <= 0)
        run_ms = spanMedianMs(trace, "task:");
    if (run_ms <= 0)
        run_ms = spanMedianMs(trace, "gpu:GpuModel::run");
    traced["layers"]["art.run_ms.p50"] = run_ms;
    emit(traced);
    return 0;
}
