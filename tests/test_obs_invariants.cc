/**
 * @file
 * Property tests over the event stream: structural invariants that any
 * correct trace of any run must satisfy — cycle monotonicity, matched
 * store-buffer insert/drain lifetimes, line-buffer hits only between a
 * fill and an evict, balanced MSHR allocate/retire, contiguous interval
 * records whose per-stat deltas sum exactly to the run_end totals.
 *
 * obs::validateRun() is the one oracle for those invariants (the same
 * lint `cpe_trace validate` runs); each case here traces a real run,
 * asserts the lint finds nothing, and checks that the run exercised
 * the mechanism the invariant is about.  tests/test_trace_analysis.cc
 * proves every check fires on a trace that breaks it.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hh"
#include "sim/simulator.hh"
#include "util/json.hh"

namespace cpe::sim {
namespace {

/** Trace one run of @p workload and parse it for the analyzer. */
obs::TraceRun
traceWorkload(const std::string &workload, Cycle sample_cycles)
{
    obs::StringTraceSink sink;
    SimConfig config = SimConfig::defaults();
    config.workloadName = workload;
    config.core.dcache.tech =
        core::PortTechConfig::singlePortAllTechniques();
    config.obs.traceSink = &sink;
    config.obs.sampleCycles = sample_cycles;
    simulate(config);

    std::istringstream in(sink.text());
    obs::TraceFile file = obs::parseTrace(in, workload + " trace");
    EXPECT_EQ(file.runs.size(), 1u);
    return file.runs.empty() ? obs::TraceRun{} : file.runs.front();
}

/** validateRun()'s complaints, one per line ("" = clean). */
std::string
problemsOf(const obs::TraceRun &run)
{
    std::string all;
    for (const std::string &problem : obs::validateRun(run))
        all += problem + "\n";
    return all;
}

std::uint64_t
countKind(const obs::TraceRun &run, obs::EventKind kind)
{
    std::uint64_t count = 0;
    for (const obs::TraceEvent &event : run.events)
        count += event.knownKind && event.kind == kind;
    return count;
}

std::uint64_t
field(const Json &record, const std::string &name)
{
    const Json *value = record.find(name);
    return value ? static_cast<std::uint64_t>(value->asNumber()) : 0;
}

TEST(ObsInvariants, CyclesAreMonotoneAndKindsKnown)
{
    obs::TraceRun run = traceWorkload("copy", 0);
    ASSERT_FALSE(run.events.empty());
    EXPECT_EQ(problemsOf(run), "");
}

TEST(ObsInvariants, StoreBufferLifetimesBalance)
{
    obs::TraceRun run = traceWorkload("copy", 0);
    EXPECT_EQ(problemsOf(run), "");
    EXPECT_GT(countKind(run, obs::EventKind::SbInsert), 0u);
}

TEST(ObsInvariants, LineBufferHitsOnlyBetweenFillAndEvict)
{
    obs::TraceRun run = traceWorkload("copy", 0);
    EXPECT_EQ(problemsOf(run), "");
    EXPECT_GT(countKind(run, obs::EventKind::LbHit), 0u);
}

TEST(ObsInvariants, MshrAllocRetireBalance)
{
    obs::TraceRun run = traceWorkload("copy", 0);
    EXPECT_EQ(problemsOf(run), "");
    EXPECT_GT(countKind(run, obs::EventKind::MshrAlloc), 0u);
}

TEST(ObsInvariants, CommitEventsSumToCommittedInsts)
{
    obs::TraceRun run = traceWorkload("copy", 0);
    EXPECT_EQ(problemsOf(run), "");
    EXPECT_GT(field(run.end, "insts"), 0u);
}

// The tentpole acceptance property: with warm-up off, the per-interval
// scalar deltas sum exactly — no tolerance — to the run's final
// StatGroup values as recorded in run_end.
TEST(ObsInvariants, IntervalStatsSumToFinalTotals)
{
    obs::TraceRun run = traceWorkload("crc", 1000);
    ASSERT_GT(run.intervals.size(), 1u);
    EXPECT_EQ(problemsOf(run), "");
}

TEST(ObsInvariants, IntervalRecordsAreContiguous)
{
    obs::TraceRun run = traceWorkload("crc", 1000);
    ASSERT_FALSE(run.intervals.empty());
    // Contiguity includes the tail: finalize() closes the last
    // interval at the true end of the run (after the post-HALT drain),
    // so the timeline covers every cycle.
    EXPECT_EQ(problemsOf(run), "");

    // Derived metrics exist and are sane on every record.
    for (const Json &interval : run.intervals) {
        double ipc = interval.at("ipc").asNumber();
        EXPECT_GE(ipc, 0.0);
        double util = interval.at("port_util").asNumber();
        EXPECT_GE(util, 0.0);
        EXPECT_LE(util, 1.0);
        double lb = interval.at("lb_hit_rate").asNumber();
        EXPECT_GE(lb, 0.0);
        EXPECT_LE(lb, 1.0);
        EXPECT_GE(interval.at("sb_occ_mean").asNumber(), 0.0);
    }
}

} // namespace
} // namespace cpe::sim
