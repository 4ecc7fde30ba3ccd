/**
 * @file
 * Per-layer probes of a traced round. Each probe is a direct call into
 * one module's public functions, wrapped in the benchmark's own span,
 * on the workload's own database and documents where the layer touches
 * them, and on a fixed standard input where it does not (the sim.*
 * probes: one boot per CPU model, one Ruby PARSEC run, one SE run).
 */

#include "base/md5.hh"
#include "common.hh"
#include "db/database.hh"
#include "resources/catalog.hh"
#include "scheduler/task_queue.hh"
#include "scheduler/worker_pool.hh"
#include "sim/fs/checkpoint.hh"
#include "sim/fs/fs_system.hh"
#include "sim/gpu/gpu.hh"
#include "workloads/gpu_apps.hh"

namespace g5perf
{

using namespace g5;

namespace
{

/** Median seconds of @p n calls of @p fn, each in its own span. */
template <class F>
double
medianSeconds(const char *span, int n, F &&fn)
{
    std::vector<double> s;
    for (int i = 0; i < n; ++i) {
        LayerSpan sp(span);
        fn(i);
        s.push_back(sp.seconds());
    }
    return median(s);
}

/** A boot on the classic single-core system (bug census off). */
sim::fs::FsConfig
bootConfig(sim::CpuType cpu)
{
    sim::fs::FsConfig cfg;
    cfg.cpuType = cpu;
    cfg.numCpus = 1;
    cfg.memSystem = "classic";
    cfg.kernelVersion = "5.4.49";
    cfg.simVersion = "";
    return cfg;
}

/** Guest MIPS of one boot of @p cfg. */
double
bootMips(const char *span, const sim::fs::FsConfig &cfg)
{
    LayerSpan sp(span);
    sim::fs::FsSystem fs(cfg);
    sim::fs::SimResult r = fs.run(2'000'000'000'000ULL);
    return double(r.totalInsts) / sp.seconds() / 1e6;
}

void
probeDb(Workload &w, Json &out)
{
    art::ArtifactDb &adb = w.adb();
    db::Collection &coll = adb.db().collection(w.runsCollection());
    std::vector<Json> docs;
    coll.forEach([&](const Json &d) { docs.push_back(d); });

    // base: serialization of the workload's own run documents.
    std::vector<std::string> texts;
    double bytes = 0;
    {
        LayerSpan sp("base:Json::dump");
        for (const Json &d : docs)
            texts.push_back(d.dump());
        for (const auto &t : texts)
            bytes += double(t.size());
        out["base.json_dump_mb_per_s"] = bytes / 1e6 / sp.seconds();
    }
    {
        LayerSpan sp("base:Json::parse");
        for (const auto &t : texts)
            Json::parse(t);
        out["base.json_parse_mb_per_s"] = bytes / 1e6 / sp.seconds();
    }

    // db: a run-shaped insert into the collection at its final size.
    Json shape = docs.empty() ? Json::object() : docs.back();
    if (shape.isObject())
        shape.asObject().erase("_id");
    std::vector<std::string> probe_ids;
    out["db.insert_us"] =
        1e6 * medianSeconds("db:Collection::insertOne", 100, [&](int i) {
            Json d = shape;
            d["name"] = "perfbench-probe-" + std::to_string(i);
            d["inputHash"] = Md5::hashString(d.getString("name"));
            probe_ids.push_back(coll.insertOne(std::move(d)));
        });

    // The run-cache probe's query: findOne on the indexed inputHash.
    std::vector<std::string> hashes;
    adb.runs().forEach([&](const Json &d) {
        if (hashes.size() < 200)
            hashes.push_back(d.getString("inputHash", ""));
    });
    if (hashes.empty())
        hashes.push_back(Md5::hashString("absent"));
    out["db.find_indexed_us"] =
        1e6 * medianSeconds("db:Collection::findOne(inputHash)", 200,
                            [&](int i) {
                                adb.runs().findOne(Json::object(
                                    {{"inputHash",
                                      Json(hashes[i % hashes.size()])}}));
                            });

    // Database::save after one update, as the journal does per run.
    std::vector<double> saves;
    for (int i = 0; i < 20; ++i) {
        coll.updateOne(Json::object({{"_id", Json(probe_ids[i])}}),
                       Json::object({{"$set",
                                      Json::object({{"probe", Json(i)}})}}));
        LayerSpan sp("db:Database::save");
        adb.db().save();
        saves.push_back(sp.seconds());
    }
    out["db.save_ms"] = 1e3 * median(saves);
}

void
probeScheduler(Json &out)
{
    unsigned workers = benchWorkers;
    if (scheduler::WorkerPool::envWorkerCount() > 0) {
        // Forked workers: a no-op job through the framed wire protocol.
        if (!scheduler::workerJobRegistered(noopTaskName))
            scheduler::registerWorkerJob(
                noopTaskName,
                [](const Json &, scheduler::CancelToken &) {
                    return Json::object();
                });
        scheduler::WorkerPool pool(workers);
        out["scheduler.dispatch_us"] =
            1e6 * medianSeconds("scheduler:WorkerPool::execute", 200,
                                [&](int) {
                                    pool.execute(noopTaskName,
                                                 Json::object());
                                });
        return;
    }
    scheduler::TaskQueue queue(workers);
    out["scheduler.dispatch_us"] =
        1e6 * medianSeconds("scheduler:TaskQueue::applyAsync", 200,
                            [&](int) {
                                auto f = queue.applyAsync(
                                    noopTaskName,
                                    [](scheduler::CancelToken &) {
                                        return Json();
                                    });
                                f->wait();
                            });
}

void
probeSim(Workload &w, Json &out)
{
    using sim::CpuType;
    out["sim.atomic_mips"] =
        bootMips("sim:boot(atomic)", bootConfig(CpuType::AtomicSimple));
    out["sim.timing_mips"] =
        bootMips("sim:boot(timing)", bootConfig(CpuType::TimingSimple));
    out["sim.o3_mips"] = bootMips("sim:boot(o3)", bootConfig(CpuType::O3));

    // The checkpoint tier's boot: fast CPU up to the hack-back point.
    sim::fs::DiskImagePtr disk = resources::buildBootExitImage();
    sim::fs::FsConfig fast = bootConfig(CpuType::Fast);
    fast.simVersion = "20.1.0.4";
    fast.disk = disk;
    fast.checkpointAfterBoot = true;
    fast.quietCheckpoint = true;
    std::vector<double> mips, save, restore;
    std::string image;
    for (int i = 0; i < 3; ++i) {
        sim::fs::FsSystem fs(fast);
        {
            LayerSpan sp("sim:FsSystem::run(fast boot)");
            sim::fs::SimResult r = fs.run(2'000'000'000'000ULL);
            mips.push_back(double(r.totalInsts) / sp.seconds() / 1e6);
        }
        {
            LayerSpan sp("sim:checkpoint save");
            image = fs.takeCheckpoint()->serialize();
            save.push_back(sp.seconds());
        }
        LayerSpan sp("sim:checkpoint restore");
        sim::fs::FsConfig onto = fast;
        onto.cpuType = CpuType::TimingSimple;
        onto.checkpointAfterBoot = false;
        auto ckpt = sim::fs::Checkpoint::deserialize(image);
        sim::fs::FsSystem restored(onto, *ckpt);
        restore.push_back(sp.seconds());
    }
    out["sim.fast_mips"] = median(mips);
    out["sim.ckpt_save_ms"] = 1e3 * median(save);
    out["sim.ckpt_restore_ms"] = 1e3 * median(restore);

    // base: MD5 over a checkpoint image and a disk image.
    {
        std::string disk_bytes = disk->serialize();
        LayerSpan sp("base:Md5");
        Md5 h;
        h.update(image);
        h.update(disk_bytes);
        h.hexDigest();
        out["base.md5_mb_per_s"] =
            double(image.size() + disk_bytes.size()) / 1e6 / sp.seconds();
    }

    // One 8-core MESI_Two_Level timing PARSEC run.
    {
        sim::fs::FsConfig cfg;
        cfg.cpuType = CpuType::TimingSimple;
        cfg.numCpus = 8;
        cfg.memSystem = "MESI_Two_Level";
        cfg.kernelVersion = "5.4.51";
        cfg.disk = resources::buildParsecImage("20.04");
        cfg.initProgramPath = "/parsec/bin/blackscholes";
        cfg.initArg = 8;
        std::int64_t fired = counterValue("sim.eventq.fired");
        LayerSpan sp("sim:FsSystem::run(ruby parsec)");
        sim::fs::FsSystem fs(cfg);
        sim::fs::SimResult r = fs.run(300'000'000'000'000ULL);
        double secs = sp.seconds();
        out["sim.ruby_mips"] = double(r.totalInsts) / secs / 1e6;
        out["sim.events_per_s"] =
            double(counterValue("sim.eventq.fired") - fired) / secs;
    }

    // One error-study SE run with its flip and digest.
    {
        sim::fs::FsConfig cfg;
        cfg.cpuType = CpuType::Fast;
        cfg.memSystem = "classic";
        cfg.seProgram = errStudyProgram(96);
        cfg.errInject = sim::ErrorInjectConfig::parse("reg:5:300:7");
        cfg.archDigest = true;
        out["sim.se_run_us"] =
            1e6 * medianSeconds("sim:FsSystem::run(se)", 20, [&](int) {
                sim::fs::FsSystem fs(cfg);
                fs.run();
            });
    }

    // GPU: the workload's own kernels when it has any.
    auto [cycles, secs] = w.gpuWork();
    if (cycles <= 0) {
        LayerSpan sp("gpu:GpuModel::run");
        sim::gpu::GpuModel model(sim::gpu::GpuConfig{},
                                 sim::gpu::RegAllocPolicy::Simple);
        cycles = double(
            model.run(workloads::gpuApp("PENNANT").kernel).shaderCycles);
        secs = sp.seconds();
    }
    out["sim.gpu_mcycles_per_s"] = cycles / 1e6 / secs;

    out["resources.image_build_ms"] =
        1e3 * medianSeconds("resources:build images", 3, [&](int) {
            resources::buildBootExitImage();
            resources::buildParsecImage("18.04");
            resources::buildParsecImage("20.04");
        });
}

} // anonymous namespace

Json
probeLayers(Workload &w, const std::string &dir)
{
    Json out = Json::object();
    probeDb(w, out);
    w.close();
    out["db.open_s"] = medianSeconds("db:Database(dir)", 3, [&](int) {
        db::Database reopened(dir + "/db");
    });
    probeScheduler(out);
    probeSim(w, out);
    return out;
}

} // namespace g5perf
