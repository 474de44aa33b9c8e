/**
 * @file
 * Differential tests for the stall-attribution profiler: profiling is
 * a pure observer, so enabling it must not change a single measured
 * number, and because every hook sits beside the aggregate scalar it
 * attributes, the per-PC sums must equal the StatGroup totals
 * *exactly* — not approximately.  Both properties are held for serial
 * runs, warm-up runs, and a parallel sweep.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <sstream>
#include <string>

#include "obs/analysis.hh"
#include "obs/profiler.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "util/json.hh"

namespace cpe::sim {
namespace {

/** Large enough that toJson(top) reports every active PC bucket. */
constexpr unsigned kAllPcs = 1u << 16;

SimConfig
profiledConfig(const std::string &workload)
{
    SimConfig config = SimConfig::defaults();
    config.workloadName = workload;
    config.core.dcache.tech =
        core::PortTechConfig::singlePortAllTechniques();
    config.obs.profileTop = kAllPcs;
    return config;
}

std::uint64_t
num(const Json &object, const char *name)
{
    const Json *value = object.find(name);
    return value ? static_cast<std::uint64_t>(value->asNumber()) : 0;
}

/** Walk a nested stats path, asserting every hop exists. */
const Json &
statsAt(const Json &stats, std::initializer_list<const char *> path)
{
    const Json *node = &stats;
    for (const char *hop : path)
        node = &node->at(hop, "stats json");
    return *node;
}

std::uint64_t
arraySum(const Json &values)
{
    std::uint64_t sum = 0;
    for (const Json &value : values.items())
        sum += static_cast<std::uint64_t>(value.asNumber());
    return sum;
}

/**
 * The heart of the differential check: every counter the profiler
 * attributes per PC must sum to the matching aggregate StatGroup
 * scalar from the same run.
 */
void
expectTotalsMatchStats(const SimResult &result, const std::string &what)
{
    ASSERT_FALSE(result.profileJson.empty()) << what;
    Json profile = Json::parse(result.profileJson, "profile json");
    Json stats = Json::parse(result.statsJson, "stats json");
    const Json &totals = profile.at("totals", "profile json");
    const Json &dcache = statsAt(stats, {"core", "dcache_unit"});

    const Json &dports = statsAt(dcache, {"dports"});
    EXPECT_EQ(num(totals, "port_grants"), num(dports, "grants")) << what;
    EXPECT_EQ(num(totals, "port_conflicts"), num(dports, "rejections"))
        << what;

    EXPECT_EQ(num(totals, "sb_full_stalls"),
              num(statsAt(dcache, {"store_buffer"}), "full_rejects"))
        << what;

    const Json &lbs = statsAt(dcache, {"line_buffers"});
    EXPECT_EQ(num(totals, "lb_lookups"), num(lbs, "lookups")) << what;
    EXPECT_EQ(num(totals, "lb_hits"), num(lbs, "hits")) << what;

    EXPECT_EQ(num(totals, "mshr_allocs"),
              num(statsAt(dcache, {"l1d_mshrs"}), "allocations"))
        << what;
    EXPECT_EQ(num(totals, "mshr_waits"), num(dcache, "load_reject_mshr"))
        << what;
    EXPECT_EQ(num(totals, "partial_stalls"),
              num(dcache, "load_reject_partial"))
        << what;

    // Load outcomes, per source and in total.
    EXPECT_EQ(num(totals, "sb_fwd"), num(dcache, "loads_sb_fwd")) << what;
    EXPECT_EQ(num(totals, "lb_served"), num(dcache, "loads_line_buf"))
        << what;
    EXPECT_EQ(num(totals, "cache_hits"), num(dcache, "loads_cache_hit"))
        << what;
    EXPECT_EQ(num(totals, "misses"), num(dcache, "loads_miss")) << what;
    EXPECT_EQ(num(totals, "miss_merged"),
              num(dcache, "loads_miss_merged"))
        << what;
    EXPECT_EQ(num(totals, "loads"),
              num(dcache, "loads_sb_fwd") + num(dcache, "loads_line_buf") +
                  num(dcache, "loads_cache_hit") +
                  num(dcache, "loads_miss") +
                  num(dcache, "loads_miss_merged"))
        << what;
    EXPECT_EQ(num(totals, "stores"), num(dcache, "stores_buffered") +
                                         num(dcache, "stores_direct"))
        << what;

    // Commit-side attribution.
    const Json &core_stats = statsAt(stats, {"core"});
    EXPECT_EQ(num(totals, "commit_stall_head"),
              num(core_stats, "commit_blocked_cycles"))
        << what;
    EXPECT_EQ(num(totals, "commit_stall_store"),
              num(core_stats, "store_commit_stalls"))
        << what;
    EXPECT_EQ(num(totals, "rob_empty_cycles"),
              num(core_stats, "rob_empty_cycles"))
        << what;

    // The per-set heatmap is the L1D's own accounting, redistributed.
    const Json &l1d = statsAt(dcache, {"l1d"});
    const Json &sets = profile.at("sets", "profile json");
    EXPECT_EQ(arraySum(sets.at("accesses", "profile json")),
              num(l1d, "hits") + num(l1d, "misses"))
        << what;
    EXPECT_EQ(arraySum(sets.at("misses", "profile json")),
              num(l1d, "misses"))
        << what;
    EXPECT_EQ(arraySum(sets.at("evictions", "profile json")),
              num(l1d, "evictions"))
        << what;

    // With top_n covering every bucket, the reported per-PC rows must
    // themselves column-sum back to the totals line.
    ASSERT_LE(num(totals, "pcs"), static_cast<std::uint64_t>(kAllPcs))
        << what;
    const Json &pcs = profile.at("pcs", "profile json");
    EXPECT_EQ(pcs.items().size(), num(totals, "pcs")) << what;
    for (const char *column :
         {"loads", "stores", "port_grants", "port_conflicts",
          "mshr_allocs", "stall_cycles"}) {
        std::uint64_t sum = 0;
        for (const Json &entry : pcs.items())
            sum += num(entry, column);
        EXPECT_EQ(sum, num(totals, column)) << what << ": " << column;
    }
}

TEST(ObsProfile, PerPcSumsMatchAggregateTotals)
{
    for (const std::string workload : {"copy", "crc", "saxpy"}) {
        SimResult result = simulate(profiledConfig(workload));
        expectTotalsMatchStats(result, workload);
    }
}

TEST(ObsProfile, WarmupResetKeepsAttributionAligned)
{
    // The profiler must reset with StatGroup::resetAll() at the
    // warm-up boundary, or every identity above drifts by the
    // warm-up period's counts.
    SimConfig config = profiledConfig("copy");
    config.warmupInsts = 2000;
    SimResult result = simulate(config);
    EXPECT_LT(result.insts, simulate(profiledConfig("copy")).insts);
    expectTotalsMatchStats(result, "copy+warmup");
}

// The two consumers of one probe must tell the same story: with the
// trace and the profile armed together (warm-up off), the trace's
// per-PC port_grant / port_conflict / commit_stall counts equal the
// profile's per-PC counters.
TEST(ObsProfile, TraceAndProfileAgreePerPc)
{
    struct Counts
    {
        std::uint64_t grants = 0, conflicts = 0, head = 0, store = 0;
        bool operator==(const Counts &) const = default;
    };
    // Two machines, so every compared counter sees traffic (only the
    // unbuffered base refuses stores at commit).
    Counts total;
    for (auto tech : {core::PortTechConfig::singlePortBase(),
                      core::PortTechConfig::singlePortAllTechniques()}) {
        obs::StringTraceSink sink;
        SimConfig config = profiledConfig("copy");
        config.core.dcache.tech = tech;
        config.obs.traceSink = &sink;
        SimResult result = simulate(config);
        std::string what = config.tag();

        std::map<Addr, Counts> traced;
        std::istringstream in(sink.text());
        obs::TraceFile file = obs::parseTrace(in, what);
        ASSERT_EQ(file.runs.size(), 1u) << what;
        for (const obs::TraceEvent &event : file.runs.front().events) {
            Counts &counts = traced[event.pc];
            if (event.kind == obs::EventKind::PortGrant)
                ++counts.grants;
            else if (event.kind == obs::EventKind::PortConflict)
                ++counts.conflicts;
            else if (event.kind == obs::EventKind::CommitStall &&
                     event.a == obs::StallHeadIncomplete)
                ++counts.head;
            else if (event.kind == obs::EventKind::CommitStall &&
                     event.a == obs::StallStoreReject)
                ++counts.store;
        }
        std::erase_if(traced, [](const auto &entry) {
            return entry.second == Counts{};
        });

        std::map<Addr, Counts> profiled;
        Json profile = Json::parse(result.profileJson, "profile json");
        for (const Json &entry : profile.at("pcs", what).items()) {
            Counts counts{num(entry, "port_grants"),
                          num(entry, "port_conflicts"),
                          num(entry, "commit_stall_head"),
                          num(entry, "commit_stall_store")};
            total.grants += counts.grants;
            total.conflicts += counts.conflicts;
            total.head += counts.head;
            total.store += counts.store;
            if (counts != Counts{})
                profiled[num(entry, "pc")] = counts;
        }
        ASSERT_EQ(traced.size(), profiled.size()) << what;
        for (const auto &[pc, counts] : traced) {
            auto it = profiled.find(pc);
            ASSERT_NE(it, profiled.end()) << what << " pc " << pc;
            EXPECT_EQ(counts.grants, it->second.grants) << what << pc;
            EXPECT_EQ(counts.conflicts, it->second.conflicts) << what << pc;
            EXPECT_EQ(counts.head, it->second.head) << what << pc;
            EXPECT_EQ(counts.store, it->second.store) << what << pc;
        }
    }
    // Non-vacuity: every compared counter saw traffic.
    EXPECT_GT(total.grants, 0u);
    EXPECT_GT(total.conflicts, 0u);
    EXPECT_GT(total.head, 0u);
    EXPECT_GT(total.store, 0u);
}

TEST(ObsProfile, ProfilingDoesNotPerturbResults)
{
    for (const std::string workload : {"copy", "crc"}) {
        SimConfig plain = profiledConfig(workload);
        plain.obs.profileTop = 0;
        SimResult off = simulate(plain);
        SimResult on = simulate(profiledConfig(workload));

        EXPECT_EQ(off.cycles, on.cycles) << workload;
        EXPECT_EQ(off.insts, on.insts) << workload;
        EXPECT_EQ(off.ipc, on.ipc) << workload;
        EXPECT_EQ(off.portUtilization, on.portUtilization) << workload;
        EXPECT_EQ(off.l1dMissRate, on.l1dMissRate) << workload;
        EXPECT_EQ(off.lineBufferHitRate, on.lineBufferHitRate)
            << workload;
        EXPECT_EQ(off.sbStoresPerDrain, on.sbStoresPerDrain) << workload;
        EXPECT_EQ(off.loadPortFraction, on.loadPortFraction) << workload;
        EXPECT_EQ(off.condAccuracy, on.condAccuracy) << workload;
        EXPECT_EQ(off.storeCommitStalls, on.storeCommitStalls)
            << workload;
        EXPECT_EQ(off.statsDump, on.statsDump) << workload;
        EXPECT_EQ(off.statsJson, on.statsJson) << workload;
        EXPECT_TRUE(off.profileJson.empty()) << workload;
        EXPECT_FALSE(on.profileJson.empty()) << workload;
    }
}

TEST(ObsProfile, ProfileTableRendersEveryRowPlusTotals)
{
    SimResult result = simulate(profiledConfig("copy"));
    Json profile = Json::parse(result.profileJson, "profile json");
    std::string table = obs::profileTable(profile);
    EXPECT_NE(table.find("port_conf"), std::string::npos);
    EXPECT_NE(table.find("total"), std::string::npos);
    EXPECT_NE(table.find("0x"), std::string::npos);
}

TEST(ObsProfile, ParallelSweepStaysByteIdenticalModuloProfiles)
{
    std::vector<SimConfig> plain;
    std::vector<SimConfig> profiled;
    for (const std::string workload : {"copy", "crc"}) {
        for (bool dual : {false, true}) {
            SimConfig config = profiledConfig(workload);
            config.obs.profileTop = 0;
            if (dual)
                config.core.dcache.tech =
                    core::PortTechConfig::dualPortBase();
            config.label = dual ? "dual" : "techniques";
            plain.push_back(config);
            config.obs.profileTop = 8;
            profiled.push_back(config);
        }
    }

    SweepRunner runner;
    std::string off = runner.runGrid(plain).toJson().dump(2);
    // Strip the per-run profile member before comparing: it is the
    // one intentional addition; everything else must match byte for
    // byte even with the sweep's worker threads in play.
    Json with = runner.runGrid(profiled).toJson();
    Json stripped = Json::object();
    for (const auto &[key, value] : with.members()) {
        if (key != "runs") {
            stripped[key] = value;
            continue;
        }
        Json runs = Json::array();
        for (const auto &run : value.items()) {
            const Json *profile = run.find("profile");
            ASSERT_TRUE(profile);
            EXPECT_EQ(num(*profile, "top"), 8u);
            EXPECT_GT(num(profile->at("totals", "profile"), "pcs"), 0u);
            Json copy = Json::object();
            for (const auto &[field, field_value] : run.members())
                if (field != "profile")
                    copy[field] = field_value;
            runs.push(std::move(copy));
        }
        stripped[key] = std::move(runs);
    }
    EXPECT_EQ(off, stripped.dump(2));
}

} // namespace
} // namespace cpe::sim
