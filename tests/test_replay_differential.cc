/**
 * @file
 * The replay determinism contract: a timing run replaying a shared
 * committed-path capture must be byte-identical to one driving the
 * functional model live — every SimResult field, the stats dump and
 * JSON, observability artifacts (traces, timeseries, profiles), and
 * whole sweep-grid documents, serial and parallel.  This is what makes
 * it safe for cpe_eval to replay by default.
 */

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "exp/registry.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/json.hh"

namespace cpe::sim {
namespace {

SimConfig
seedConfig(const std::string &workload)
{
    SimConfig config = SimConfig::defaults();
    config.workloadName = workload;
    config.core.dcache.tech =
        core::PortTechConfig::singlePortAllTechniques();
    return config;
}

/** Every measured field of two results must match exactly. */
void
expectIdentical(const SimResult &live, const SimResult &replayed,
                const std::string &what)
{
    EXPECT_EQ(live.cycles, replayed.cycles) << what;
    EXPECT_EQ(live.insts, replayed.insts) << what;
    EXPECT_EQ(live.ipc, replayed.ipc) << what;
    EXPECT_EQ(live.portUtilization, replayed.portUtilization) << what;
    EXPECT_EQ(live.l1dMissRate, replayed.l1dMissRate) << what;
    EXPECT_EQ(live.lineBufferHitRate, replayed.lineBufferHitRate) << what;
    EXPECT_EQ(live.sbStoresPerDrain, replayed.sbStoresPerDrain) << what;
    EXPECT_EQ(live.loadPortFraction, replayed.loadPortFraction) << what;
    EXPECT_EQ(live.condAccuracy, replayed.condAccuracy) << what;
    EXPECT_EQ(live.storeCommitStalls, replayed.storeCommitStalls) << what;
    EXPECT_EQ(live.modeSwitches, replayed.modeSwitches) << what;
    EXPECT_EQ(live.statsDump, replayed.statsDump) << what;
    EXPECT_EQ(live.statsJson, replayed.statsJson) << what;
}

TEST(ReplayDifferential, SerialRunsByteIdentical)
{
    TraceCache cache;
    for (const std::string workload : {"copy", "crc", "histogram"}) {
        SimResult live = simulate(seedConfig(workload));

        SimConfig replay = seedConfig(workload);
        replay.traceCache = &cache;
        SimResult replayed = simulate(replay);

        expectIdentical(live, replayed, workload);
    }
    EXPECT_EQ(cache.stats().captures, 3u);
}

TEST(ReplayDifferential, ObsArtifactsByteIdentical)
{
    // Tracing + sampling + profiling, live vs replayed: the capture
    // must not change a single observed event either.
    auto observed = [](TraceCache *cache) {
        obs::StringTraceSink sink;
        SimConfig config = seedConfig("copy");
        config.traceCache = cache;
        config.obs.traceSink = &sink;
        config.obs.sampleCycles = 4000;
        config.obs.profileTop = 5;
        SimResult result = simulate(config);
        return std::make_pair(result, sink.text());
    };

    auto live = observed(nullptr);
    TraceCache cache;
    // Warm the cache so the observed run is a pure replay.
    SimConfig warm = seedConfig("copy");
    warm.traceCache = &cache;
    simulate(warm);
    auto replayed = observed(&cache);

    expectIdentical(live.first, replayed.first, "observed copy");
    EXPECT_EQ(live.first.timeseriesJson, replayed.first.timeseriesJson);
    EXPECT_EQ(live.first.profileJson, replayed.first.profileJson);
    EXPECT_EQ(live.second, replayed.second) << "event traces differ";
}

TEST(ReplayDifferential, ParallelSweepGridByteIdentical)
{
    std::vector<SimConfig> live;
    std::vector<SimConfig> replayed;
    TraceCache cache;
    for (const std::string workload : {"copy", "crc"}) {
        for (bool dual : {false, true}) {
            SimConfig config = seedConfig(workload);
            if (dual)
                config.core.dcache.tech =
                    core::PortTechConfig::dualPortBase();
            config.label = dual ? "dual" : "techniques";
            live.push_back(config);
            config.traceCache = &cache;
            replayed.push_back(config);
        }
    }

    // Forced-parallel runner: concurrent workers race to acquire each
    // workload's capture; the grids must still match byte for byte.
    SweepRunner runner(4);
    std::string from_live = runner.runGrid(live).toJson().dump(2);
    std::string from_replay = runner.runGrid(replayed).toJson().dump(2);
    EXPECT_EQ(from_live, from_replay);

    TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.captures, 2u) << "one capture per workload";
    EXPECT_EQ(stats.replays, 2u);
}

TEST(ReplayDifferential, F5GridMatchesLive)
{
    // The acceptance grid: F5's full variant set (7 timing variants of
    // one functional stream) over one workload, live vs replayed,
    // serial and parallel.
    const exp::Experiment &f5 =
        exp::ExperimentRegistry::instance().get("F5");
    const std::vector<std::string> workloads = {"copy"};

    auto live_configs = exp::suiteConfigs(f5.variants(), workloads, {});
    std::string live =
        SweepRunner(1).runGrid(live_configs).toJson().dump(2);

    TraceCache cache;
    exp::RunContext replay;
    replay.traceCache = &cache;
    auto replay_configs =
        exp::suiteConfigs(f5.variants(), workloads, replay);

    std::string serial =
        SweepRunner(1).runGrid(replay_configs).toJson().dump(2);
    std::string parallel =
        SweepRunner(4).runGrid(replay_configs).toJson().dump(2);

    EXPECT_EQ(live, serial);
    EXPECT_EQ(live, parallel);
    TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.captures, 1u)
        << "one functional execution for the whole grid";
    EXPECT_EQ(stats.replays, 2u * f5.variants().size() - 1);
}

} // namespace
} // namespace cpe::sim
