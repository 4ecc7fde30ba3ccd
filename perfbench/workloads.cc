/**
 * @file
 * The four g5perf workloads. Each drives the public g5art API the way
 * a launch script does (Workspace, Gem5Run::create*Run, Tasks,
 * ErrorStudy, GpuModel) and checks the simulated results against the
 * paper's claims, with expectations computed here, not by the program.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>

#include "art/errstudy.hh"
#include "art/tasks.hh"
#include "art/workspace.hh"
#include "base/md5.hh"
#include "common.hh"
#include "resources/catalog.hh"
#include "sim/fs/fs_system.hh"
#include "sim/fs/guest_abi.hh"
#include "sim/fs/known_issues.hh"
#include "sim/gpu/gpu.hh"
#include "sim/isa/builder.hh"
#include "workloads/gpu_apps.hh"

namespace g5perf
{

using namespace g5;
using namespace g5::art;
namespace stdfs = std::filesystem;

unsigned benchWorkers = 1;

CounterDelta::CounterDelta(std::vector<const char *> names)
{
    for (const char *n : names)
        before[n] = counterValue(n);
}

std::int64_t
CounterDelta::operator[](const char *name) const
{
    return counterValue(name) - before.at(name);
}

void
Checks::add(const std::string &name, bool ok, const std::string &detail)
{
    list.push(Json::object({{"name", Json(name)},
                            {"ok", Json(ok)},
                            {"detail", Json(detail)}}));
}

bool
Checks::allOk() const
{
    for (const Json &c : list.asArray())
        if (!c.getBool("ok"))
            return false;
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tenthMeanMicros(const std::vector<double> &v, bool last)
{
    if (v.empty())
        return 0;
    std::size_t k = std::max<std::size_t>(1, v.size() / 10);
    double sum = 0;
    for (std::size_t i = 0; i < k; ++i)
        sum += last ? v[v.size() - 1 - i] : v[i];
    return 1e6 * sum / double(k);
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (auto it = stdfs::recursive_directory_iterator(dir, ec);
         !ec && it != stdfs::recursive_directory_iterator();
         it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

namespace
{

std::string
str(std::int64_t v)
{
    return std::to_string(v);
}

/** MD5 of a canonical text digest, so the digest stays short. */
std::string
md5Lines(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    Md5 h;
    for (const auto &l : lines) {
        h.update(l);
        h.update("\n");
    }
    return h.hexDigest();
}

/** Terminal document of every run created by one pass, by run id. */
std::vector<Json>
fetchDocs(ArtifactDb &adb, const std::vector<std::string> &ids)
{
    LayerSpan span("db:findById");
    std::vector<Json> docs;
    docs.reserve(ids.size());
    for (const auto &id : ids)
        docs.push_back(adb.runs().findById(id));
    return docs;
}

/**
 * Shared shape of the two full-system sweeps: a workspace, a list of
 * cells, one batched submission through Tasks per pass.
 */
class FsSweep : public Workload
{
  public:
    explicit FsSweep(std::uint64_t seed) : rng(seed) {}

    ArtifactDb &adb() override { return ws->adb(); }

    void close() override { ws.reset(); }

  protected:
    struct Run
    {
        std::string name;
        std::string kernel; ///< Workspace::Item key
        std::string disk;   ///< Workspace::Item key
        Json params;
    };

    void
    openWorkspace(const std::string &dir)
    {
        ws.reset();
        ws = std::make_unique<Workspace>(dir + "/ws", dir + "/db");
        binary = ws->gem5Binary("20.1.0.4");
    }

    /** Create, submit and wait for every run; collect the documents. */
    PassStats
    sweep(const std::vector<Run> &cells, const Workspace::Item &script,
          double timeout_s, std::vector<Json> &docs)
    {
        PassStats st;
        std::vector<std::string> ids;
        std::vector<Gem5Run> runs;
        runs.reserve(cells.size());
        Tasks tasks(ws->adb(), benchWorkers);
        double start = monotonicSeconds();
        for (const Run &c : cells) {
            LayerSpan span("art:createFSRun");
            const auto &k = items.at(c.kernel);
            const auto &d = items.at(c.disk);
            runs.push_back(Gem5Run::createFSRun(
                ws->adb(), c.name, binary->path, script.path,
                ws->outdir(c.name), binary->artifact, binary->repoArtifact,
                script.repoArtifact, k.path, d.path, k.artifact,
                d.artifact, c.params, timeout_s));
            ids.push_back(runs.back().id());
            st.createSeconds.push_back(span.seconds());
        }
        {
            LayerSpan span("scheduler:applyAsyncBatch+waitAll");
            tasks.applyAsyncBatch(std::move(runs));
            tasks.waitAll();
        }
        st.seconds = monotonicSeconds() - start;
        {
            // The art layer leaves persistence to the launch script;
            // the warm pass reopens what this save writes.
            LayerSpan span("db:Database::save");
            ws->adb().db().save();
        }
        docs = fetchDocs(ws->adb(), ids);
        st.runs = st.attempted = std::int64_t(cells.size());
        for (const Json &d : docs)
            if (Gem5Run::classify(d) == RunOutcome::Pending)
                ++st.failed;
        return st;
    }

    SeededRng rng;
    std::unique_ptr<Workspace> ws;
    std::optional<Workspace::Item> binary;
    std::map<std::string, Workspace::Item> items;
};

// ---------------------------------------------------------------------
// boot-matrix: Fig 8's 480-cell cross product.
// ---------------------------------------------------------------------

class BootMatrix : public FsSweep
{
  public:
    explicit BootMatrix(std::uint64_t seed) : FsSweep(seed)
    {
        for (const char *cpu : {"kvm", "atomic", "timing", "o3"})
            for (const char *mem : {"classic", "MI_example",
                                    "MESI_Two_Level"})
                for (int cores : {1, 2, 4, 8})
                    for (const auto &kernel : sim::fs::fig8Kernels())
                        for (const char *boot : {"init", "systemd"}) {
                            Json p = Json::object();
                            p["cpu"] = cpu;
                            p["num_cpus"] = cores;
                            p["mem_system"] = mem;
                            p["boot_type"] = boot;
                            p["max_ticks"] =
                                std::int64_t(200'000'000'000);
                            cells.push_back(
                                {std::string(cpu) + "-" + mem + "-" +
                                     str(cores) + "-" + kernel + "-" +
                                     boot,
                                 kernel, "boot-exit", p});
                        }
        rng.shuffle(cells); // the seed sets the submission order
    }

    int warmPasses() const override { return 5; }

    void
    setup(const std::string &dir) override
    {
        openWorkspace(dir);
        items.insert_or_assign("boot-exit", ws->disk("boot-exit", resources::buildBootExitImage()));
        script = ws->runScript("run_exit.py", "boot-exit run script");
        for (const auto &v : sim::fs::fig8Kernels())
            items.insert_or_assign(v, ws->kernel(v));
    }

    PassStats
    launch(int) override
    {
        CounterDelta c({"art.runCache.hits", "art.ckpt.misses"});
        PassStats st = sweep(cells, *script, 600.0, docs);
        cacheHits = c["art.runCache.hits"];
        bootsPaid = c["art.ckpt.misses"];
        return st;
    }

    void
    verify(int pass, Checks &checks, Json &digest) override
    {
        const auto &cold = docs;
        int kvm_ok = 0, atomic_ruby_unsup = 0, o3_supported = 0,
            o3_success = 0, timeouts = 0, restored = 0;
        std::map<RunOutcome, int> o3;
        int o3_deadlock_mi = 0;
        std::map<std::string, int> census;
        std::vector<std::string> lines;
        std::int64_t ticks = 0, insts = 0;
        std::set<std::string> prefixes;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Json &p = cells[i].params;
            std::string cpu = p.getString("cpu");
            std::string mem = p.getString("mem_system");
            RunOutcome o = Gem5Run::classify(cold[i]);
            ++census[runOutcomeName(o)];
            prefixes.insert(cells[i].kernel + "/" + mem + "/" +
                            str(p.getInt("num_cpus")) + "/" +
                            p.getString("boot_type"));
            if (cpu == "kvm" && o == RunOutcome::Success)
                ++kvm_ok;
            if (cpu == "atomic" && mem != "classic" &&
                o == RunOutcome::Unsupported)
                ++atomic_ruby_unsup;
            if (cpu == "o3") {
                ++o3[o];
                if (o != RunOutcome::Unsupported)
                    ++o3_supported;
                if (o == RunOutcome::Success)
                    ++o3_success;
                if (o == RunOutcome::Deadlock && mem == "MI_example")
                    ++o3_deadlock_mi;
            }
            if (o == RunOutcome::Timeout)
                ++timeouts;
            if (cold[i].contains("restoredBootHash"))
                ++restored;
            ticks += cold[i].getInt("simTicks");
            insts += cold[i].getInt("totalInsts");
            lines.push_back(cells[i].name + " " + runOutcomeName(o) +
                            " " + str(cold[i].getInt("simTicks")) + " " +
                            str(cold[i].getInt("totalInsts")));
        }
        double share = o3_supported ? double(o3_success) / o3_supported
                                    : 0.0;
        checks.add("kvm boots in all 120 cells", kvm_ok == 120,
                   str(kvm_ok));
        checks.add("atomic unsupported on all 80 Ruby cells",
                   atomic_ruby_unsup == 80, str(atomic_ruby_unsup));
        checks.add("O3: 27 kernel panics",
                   o3[RunOutcome::KernelPanic] == 27,
                   str(o3[RunOutcome::KernelPanic]));
        checks.add("O3: 11 segfaults", o3[RunOutcome::SimCrash] == 11,
                   str(o3[RunOutcome::SimCrash]));
        checks.add("O3: 4 deadlocks, all MI_example",
                   o3[RunOutcome::Deadlock] == 4 && o3_deadlock_mi == 4,
                   str(o3[RunOutcome::Deadlock]));
        checks.add("O3: 16 runs never finish",
                   o3[RunOutcome::Timeout] == 16 && timeouts == 16,
                   str(o3[RunOutcome::Timeout]));
        checks.add("O3 succeeds in about 40% of supported cells",
                   share >= 0.30 && share <= 0.50, std::to_string(share));
        if (pass == 1) {
            checks.add("cold pass pays one boot per distinct boot prefix",
                       bootsPaid == std::int64_t(prefixes.size()) &&
                           prefixes.size() == 120,
                       str(bootsPaid) + " boots, " +
                           str(std::int64_t(prefixes.size())) +
                           " prefixes");
            checks.add("cold pass restores the other successful boots",
                       restored > 0, str(restored));
        } else {
            checks.add("warm cache hits = 480 minus never-finishing runs",
                       cacheHits == 480 - timeouts && cacheHits == 464,
                       str(cacheHits));
        }

        Json c = Json::object();
        for (const auto &kv : census)
            c[kv.first] = kv.second;
        digest["census"] = c;
        digest["simTicks"] = ticks;
        digest["totalInsts"] = insts;
        digest["runsMd5"] = md5Lines(lines);
    }

  private:
    std::int64_t cacheHits = 0;
    std::int64_t bootsPaid = 0;
    std::vector<Run> cells;
    std::optional<Workspace::Item> script;
    std::vector<Json> docs; ///< of the last launch, in cell order
};

// ---------------------------------------------------------------------
// error-study: a seeded flip matrix through ErrorStudy.
// ---------------------------------------------------------------------

/** Cells of the flip matrix, split evenly over the two programs. */
constexpr int errCells = 1200;

/** Loop trip counts of the two workload programs. */
constexpr int loopIters[] = {96, 160};

} // anonymous namespace

sim::isa::ProgramPtr
errStudyProgram(int iters)
{
    sim::isa::ProgramBuilder pb("acc-" + str(iters));
    pb.movi(3, 0x9000);
    pb.movi(4, 0);
    pb.movi(5, 0);
    pb.movi(6, iters);
    auto loop = pb.newLabel();
    pb.bind(loop);
    pb.muli(7, 5, 3);
    pb.add(4, 4, 7);
    pb.st(3, 0, 4);
    pb.addi(3, 3, 8);
    pb.addi(5, 5, 1);
    pb.blt(5, 6, loop);
    pb.movi(1, pb.str("loop done"));
    pb.syscall(sim::fs::SYS_WRITE);
    pb.movi(1, 0);
    pb.syscall(sim::fs::SYS_EXIT);
    return pb.finish();
}

namespace
{

/** Dynamic instruction count from the loop's shape: 4 set-up
 *  instructions, 6 per iteration, 4 to report and exit. */
std::uint64_t
loopInsts(int iters)
{
    return 4 + 6 * std::uint64_t(iters) + 4;
}

class ErrorStudyWorkload : public Workload
{
  public:
    explicit ErrorStudyWorkload(std::uint64_t seed)
    {
        SeededRng rng(seed);
        for (int i = 0; i < errCells; ++i) {
            int iters = loopIters[i % 2];
            std::uint64_t n = loopInsts(iters);
            // Every fourth flip is scheduled past the program's end.
            bool beyond = i % 4 == 3;
            std::uint64_t at = beyond ? n + rng.below(n) : rng.below(n);
            const char *target = rng.below(2) ? "reg" : "mem";
            // Low bits only: a high bit of the loop bound or counter
            // would spin the loop for ~2^60 iterations.
            std::uint64_t bit = rng.below(16);
            std::uint64_t flip_seed = 1 + i + 100000 * rng.below(1000);
            Flip f;
            f.workload = "acc-" + str(iters);
            f.spec = std::string(target) + ":" + str(bit) + ":" +
                     str(std::int64_t(at)) + ":" +
                     str(std::int64_t(flip_seed));
            f.beyond = beyond;
            f.iters = iters;
            flips.push_back(f);
        }
    }

    ArtifactDb &adb() override { return ws->adb(); }

    void close() override { ws.reset(); }

    void
    setup(const std::string &dir) override
    {
        ws.reset();
        ws = std::make_unique<Workspace>(dir + "/ws", dir + "/db");
        gem5 = ws->gem5Binary("21.0", "X86");
        script = ws->runScript("err_study.py", "error-study script");
        stdfs::create_directories(ws->root() + "/workloads");
        for (int iters : loopIters) {
            std::string name = "acc-" + str(iters);
            std::string path = ws->root() + "/workloads/" + name;
            {
                std::ofstream out(path);
                out << errStudyProgram(iters)->toJson().dump();
            }
            Artifact::Params wp;
            wp.typ = "binary";
            wp.name = name;
            wp.command = "gcc -O2 acc.c -o " + name;
            wp.path = path;
            programs.insert_or_assign(
                name, std::make_pair(path, Artifact::registerArtifact(
                                               ws->adb(), wp)));
        }
    }

    PassStats
    launch(int pass) override
    {
        std::vector<ErrorCell> cells;
        for (const Flip &f : flips) {
            Json p = Json::object();
            p["cpu"] = "fast";
            p["num_cpus"] = 1;
            p["mem_system"] = "classic";
            cells.push_back({f.workload, f.spec, p});
        }
        PassStats st;
        std::vector<std::string> created;
        auto factory = [&](const std::string &name, const Json &p) {
            LayerSpan span("art:createSERun");
            std::string flat = name;
            for (char &ch : flat)
                if (ch == '/' || ch == ':')
                    ch = '_';
            std::string prog = name.substr(name.find('/') + 1);
            prog = prog.substr(0, prog.find('/'));
            const auto &w = programs.at(prog);
            Gem5Run run = Gem5Run::createSERun(
                ws->adb(), name, gem5->path, script->path,
                ws->outdir(flat), gem5->artifact, gem5->repoArtifact,
                script->repoArtifact,
                w.first, w.second, p, 120.0);
            if (pass == 1)
                coldIds[name] = run.id();
            created.push_back(run.id());
            st.createSeconds.push_back(span.seconds());
            return run;
        };
        ErrorStudy study(ws->adb(), "perfbench");
        Tasks tasks(ws->adb(), benchWorkers);
        double start = monotonicSeconds();
        {
            LayerSpan span("art:ErrorStudy::run");
            census = study.run(tasks, cells, factory);
        }
        st.seconds = monotonicSeconds() - start;
        st.runs = st.attempted = std::int64_t(created.size());
        for (const Json &d : fetchDocs(ws->adb(), created))
            if (Gem5Run::classify(d) == RunOutcome::Pending)
                ++st.failed;
        skipped = std::int64_t(study.skipped());
        return st;
    }

    void
    verify(int pass, Checks &checks, Json &digest) override
    {
        std::map<std::string, const Json *> cellOf;
        const Json &rows = census.at("cells");
        int checker_ok = 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Json &r = rows.at(i);
            cellOf[r.getString("workload") + "/" + r.getString("flip")] =
                &r;
            if (r.getString("checkerOutcome") == "success")
                ++checker_ok;
        }
        std::int64_t total = 0;
        for (const auto &kv : census.at("totals").asObject())
            total += kv.second.asInt();
        checks.add("every checker succeeds", checker_ok == errCells,
                   str(checker_ok));
        checks.add("census totals equal the cell count",
                   total == errCells && census.getInt("pairs") == errCells,
                   str(total));
        // The checker replay runs the clean program: its instruction
        // count is the loop's shape.
        int insts_ok = 0;
        std::int64_t checker_insts = 0;
        for (int iters : loopIters) {
            std::int64_t n =
                checkerDoc("acc-" + str(iters)).getInt("totalInsts");
            checker_insts += n;
            if (std::uint64_t(n) == loopInsts(iters))
                ++insts_ok;
        }
        checks.add("checker instruction count matches the loop shape",
                   insts_ok == int(std::size(loopIters)), str(insts_ok));
        digest["census"] = census.at("totals");
        digest["censusMd5"] = Md5::hashString(census.dump());
        digest["checkerInsts"] = checker_insts;
        if (pass > 1) {
            checks.add("warm pass skips every pair member",
                       skipped == 2 * errCells, str(skipped));
            return;
        }

        // The cold pass ran every main on the fast CPU, whose batches
        // must stop at the injection boundary. AtomicSimpleCpu counts
        // down one instruction at a time, so a replay on it lands each
        // flip at exactly its instruction: the main's injection record
        // (victim, before/after values), final architectural state and
        // instruction count must equal the replay's. Ticks are left
        // out: both CPU models stamp the injection record and the SE
        // exit with the tick their current batch started at, so the
        // ticks differ with the batch boundaries, not with the flip.
        std::vector<std::string> ids;
        for (const Flip &f : flips)
            ids.push_back(coldIds.at("perfbench/" + f.workload + "/" +
                                     f.spec + "/main"));
        std::vector<Json> mains = fetchDocs(ws->adb(), ids);
        int fired_ok = 0, inside = 0, beyond_ok = 0, beyond = 0;
        for (std::size_t i = 0; i < flips.size(); ++i) {
            const Flip &f = flips[i];
            const Json &doc = mains[i];
            auto cell = cellOf.find(f.workload + "/" + f.spec);
            if (f.beyond) {
                ++beyond;
                if (!doc.contains("errInject") && cell != cellOf.end() &&
                    cell->second->getString("class") == "masked")
                    ++beyond_ok;
            } else {
                ++inside;
                sim::fs::SimResult ref = atomicReplay(f);
                if (doc.contains("errInject") &&
                    withoutTick(doc.at("errInject")) ==
                        withoutTick(ref.errInject) &&
                    doc.getString("archMd5", "") == ref.archMd5 &&
                    doc.getInt("totalInsts", -1) ==
                        std::int64_t(ref.totalInsts))
                    ++fired_ok;
            }
        }
        checks.add("flips before the program's end fire at their "
                   "instruction (fast-CPU record and state equal an "
                   "atomic-CPU replay's)",
                   fired_ok == inside, str(fired_ok) + "/" + str(inside));
        checks.add("flips past the program's end never fire and are "
                   "masked",
                   beyond_ok == beyond,
                   str(beyond_ok) + "/" + str(beyond));
    }

  private:
    struct Flip
    {
        std::string workload;
        std::string spec;
        bool beyond = false;
        int iters = 0;
    };

    static Json
    withoutTick(Json record)
    {
        if (record.isObject())
            record.asObject().erase("tick");
        return record;
    }

    /** @p f's main run replayed on AtomicSimpleCpu, outside the art
     *  layer, with the tick limit the art layer gives SE runs. */
    static sim::fs::SimResult
    atomicReplay(const Flip &f)
    {
        sim::fs::FsConfig cfg;
        cfg.cpuType = sim::CpuType::AtomicSimple;
        cfg.numCpus = 1;
        cfg.memSystem = "classic";
        cfg.seProgram = errStudyProgram(f.iters);
        cfg.errInject = sim::ErrorInjectConfig::parse(f.spec);
        cfg.archDigest = true;
        sim::fs::FsSystem fs(cfg);
        return fs.run(2'000'000'000'000ULL);
    }

    /**
     * The terminal document of @p workload's shared checker replay.
     * It is journalled under the name of the pair that sorts first.
     */
    Json
    checkerDoc(const std::string &workload)
    {
        std::string first;
        for (const Flip &f : flips)
            if (f.workload == workload && (first.empty() || f.spec < first))
                first = f.spec;
        Json entry = ws->adb().db().collection("sweeps").findOne(
            Json::object({{"runName", Json("perfbench/" + workload + "/" +
                                           first + "/check")}}));
        return ws->adb().runs().findById(entry.getString("runId", ""));
    }

    std::vector<Flip> flips;
    std::unique_ptr<Workspace> ws;
    std::optional<Workspace::Item> gem5, script;
    std::map<std::string, std::pair<std::string, Artifact>> programs;
    /** Cold-pass run ids by run name. */
    std::map<std::string, std::string> coldIds;
    Json census; ///< of the last launch
    std::int64_t skipped = 0;
};

// ---------------------------------------------------------------------
// gpu-regalloc: Fig 9's allocator pair over a fixed Table IV subset.
// ---------------------------------------------------------------------

/**
 * The Table IV apps the Fig 9 claims below name. Of HeteroSync, FAMutex
 * and the three Uniq mutexes stay; the other four take three quarters
 * of the whole study's host time, which would leave one round per run.
 */
const std::vector<std::string> gpuSubset = {
    // HeteroSync: all below 1.0 under dynamic
    "FAMutex", "SpinMutexEBOUniq", "FAMutexUniq", "SleepMutexUniq",
    // pool layers
    "fwd_pool",
    // "little or no difference"
    "2dshfl", "shfl", "unroll", "dynamic_shared", "HACC", "LULESH",
    // dynamic helps
    "inline_asm", "MatrixTranspose", "PENNANT", "stream",
};

const std::set<std::string> gpuNoDifference = {
    "2dshfl", "shfl", "unroll", "dynamic_shared", "HACC", "LULESH"};
const std::set<std::string> gpuDynamicFaster = {
    "inline_asm", "MatrixTranspose", "PENNANT", "stream"};

class GpuRegalloc : public Workload
{
  public:
    explicit GpuRegalloc(std::uint64_t seed) : order(gpuSubset)
    {
        SeededRng rng(seed);
        rng.shuffle(order);
    }

    ArtifactDb &adb() override { return ws->adb(); }

    void close() override { ws.reset(); }

    std::string runsCollection() const override { return "gpu_runs"; }

    int warmPasses() const override { return 1; }

    std::pair<double, double>
    gpuWork() const override
    {
        return {gpuCycles, gpuSeconds};
    }

    void
    setup(const std::string &dir) override
    {
        ws.reset();
        ws = std::make_unique<Workspace>(dir + "/ws", dir + "/db");
        Artifact::Params docker;
        docker.typ = "docker environment";
        docker.name = "gcn-gpu";
        docker.command = "docker pull gcr.io/gem5-test/gcn-gpu";
        docker.gitUrl = "https://gem5.googlesource.com/public/gem5";
        docker.gitHash = "2a4357bfd0c688a19cfd6b1c600bb2d2d6fa6151";
        docker.documentation = "ROCm 1.6 + GCC 5.4 environment";
        Artifact env = Artifact::registerArtifact(ws->adb(), docker);
        gem5Hash = ws->gem5Binary("21.0", "GCN3_X86").artifact.hash();
        for (const auto &name : gpuSubset) {
            const auto &app = workloads::gpuApp(name);
            Artifact::Params prog;
            prog.typ = "gpu binary";
            prog.name = name;
            prog.command = "docker run gcn-gpu make " + name;
            prog.gitUrl =
                "https://gem5.googlesource.com/public/gem5-resources";
            prog.gitHash =
                Md5::hashString(app.kernel.toJson().dump()).substr(0, 20);
            prog.inputs = {env.hash()};
            prog.documentation = app.group + " / " + app.inputSize;
            appHash[name] =
                Artifact::registerArtifact(ws->adb(), prog).hash();
        }
    }

    PassStats
    launch(int pass) override
    {
        using namespace g5::sim::gpu;
        PassStats st;
        db::Collection &results = ws->adb().db().collection("gpu_runs");
        GpuConfig cfg;
        shader.clear();
        double start = monotonicSeconds();
        for (const auto &name : order) {
            const auto &app = workloads::gpuApp(name);
            for (RegAllocPolicy policy :
                 {RegAllocPolicy::Simple, RegAllocPolicy::Dynamic}) {
                GpuRunResult r;
                {
                    LayerSpan span("gpu:GpuModel::run");
                    GpuModel model(cfg, policy);
                    r = model.run(app.kernel);
                    if (pass == 1) {
                        gpuSeconds += span.seconds();
                        gpuCycles += double(r.shaderCycles);
                    }
                }
                shader[name + "/" + regAllocName(policy)] =
                    r.shaderCycles;
                LayerSpan span("db:insertOne(gpu_runs)");
                Json doc = Json::object();
                doc["app"] = name;
                doc["allocator"] = regAllocName(policy);
                doc["binary"] = appHash.at(name);
                doc["gem5"] = gem5Hash;
                doc["result"] = r.toJson();
                results.insertOne(std::move(doc));
                st.createSeconds.push_back(span.seconds());
                ++st.runs;
            }
        }
        st.seconds = monotonicSeconds() - start;
        {
            LayerSpan span("db:Database::save");
            ws->adb().db().save();
        }
        st.attempted = st.runs;
        return st;
    }

    void
    verify(int, Checks &checks, Json &digest) override
    {
        auto &c = shader;
        auto speedup = [&](const std::string &app) {
            return double(c.at(app + "/simple")) /
                   double(c.at(app + "/dynamic"));
        };
        double sum_ratio = 0;
        int hetero_below = 0, hetero = 0, flat_ok = 0, faster_ok = 0;
        std::vector<std::string> lines;
        std::int64_t total = 0;
        for (const auto &name : gpuSubset) {
            double s = speedup(name);
            sum_ratio += 1.0 / s;
            if (workloads::gpuApp(name).group == "heterosync") {
                ++hetero;
                if (s < 1.0)
                    ++hetero_below;
            }
            if (gpuNoDifference.count(name) && std::fabs(s - 1.0) <= 0.02)
                ++flat_ok;
            if (gpuDynamicFaster.count(name) && s > 1.0)
                ++faster_ok;
            for (const char *pol : {"simple", "dynamic"}) {
                total += std::int64_t(c.at(name + "/" + pol));
                lines.push_back(name + "/" + pol + " " +
                                str(std::int64_t(c.at(name + "/" + pol))));
            }
        }
        double mean_slowdown = sum_ratio / double(gpuSubset.size());
        checks.add("dynamic is slower on average", mean_slowdown > 1.0,
                   std::to_string(mean_slowdown));
        checks.add("FAMutex and fwd_pool below 1.0",
                   speedup("FAMutex") < 1.0 && speedup("fwd_pool") < 1.0,
                   std::to_string(speedup("FAMutex")) + " / " +
                       std::to_string(speedup("fwd_pool")));
        checks.add("every HeteroSync app below 1.0",
                   hetero_below == hetero && hetero == 4,
                   str(hetero_below) + "/" + str(hetero));
        checks.add("little-or-no-difference kernels stay near 1.0",
                   flat_ok == int(gpuNoDifference.size()), str(flat_ok));
        checks.add("inline_asm, MatrixTranspose, PENNANT, stream above "
                   "1.0",
                   faster_ok == int(gpuDynamicFaster.size()),
                   str(faster_ok));
        digest["shaderCycles"] = total;
        digest["runsMd5"] = md5Lines(lines);
    }

  private:
    std::vector<std::string> order;
    std::unique_ptr<Workspace> ws;
    std::string gem5Hash;
    std::map<std::string, std::string> appHash;
    /** Shader cycles of the last launch, by app/allocator. */
    std::map<std::string, std::uint64_t> shader;
    double gpuCycles = 0, gpuSeconds = 0;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "boot-matrix")
        return std::make_unique<BootMatrix>(seed);
    if (name == "error-study")
        return std::make_unique<ErrorStudyWorkload>(seed);
    if (name == "gpu-regalloc")
        return std::make_unique<GpuRegalloc>(seed);
    return nullptr;
}

} // namespace g5perf
