/**
 * @file
 * Byte-for-byte pin of the timing core.  A grid of whole runs — four
 * contended-port kernels at OS level 0 and two miss-bound kernels at
 * OS level 2, each on the untreated single port, the single port with
 * every technique and the dual port, plus a banked machine, a
 * wide-port machine and a periodic-sampled run — is simulated and
 * every run's full stats JSON and per-instruction pipe trace
 * (fetch/dispatch/issue/complete/retire cycles) are compared against
 * tests/golden/core_stats.json.  Both artifacts are stored as FNV-1a
 * plus length; cycles and instructions are stored verbatim so a
 * mismatch reads as a timing drift at a glance.
 *
 * Any change to when an instruction moves through the pipeline shows
 * up here, however small its effect on IPC.  Regenerate with
 * CPE_REGEN_GOLDEN=1 only for an intentional, explained model change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/port_config.hh"
#include "func/executor.hh"
#include "sim/config.hh"
#include "sim/phase_engine.hh"
#include "util/json.hh"
#include "workload/registry.hh"

#ifndef CPE_GOLDEN_DIR
#error "CPE_GOLDEN_DIR must point at tests/golden"
#endif

namespace cpe::sim {
namespace {

/**
 * An output stream buffer that keeps only the FNV-1a hash, byte count
 * and line count of what is written through it (the FNV-1a of
 * test_sampled_differential.cc, folded in as the bytes arrive): a
 * whole-run pipe trace is tens of megabytes.
 */
class HashingBuf : public std::streambuf
{
  public:
    HashingBuf() { setp(buffer_, buffer_ + sizeof(buffer_)); }

    std::string
    hash()
    {
        flush();
        std::ostringstream out;
        out << std::hex << hash_;
        return out.str();
    }
    std::uint64_t bytes() { flush(); return bytes_; }
    std::uint64_t lines() { flush(); return lines_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        flush();
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            sputc(traits_type::to_char_type(ch));
        return traits_type::not_eof(ch);
    }

  private:
    /** Fold the put area into the running hash and empty it. */
    void
    flush()
    {
        for (const char *p = pbase(); p != pptr(); ++p) {
            hash_ ^= static_cast<unsigned char>(*p);
            hash_ *= 1099511628211ull;
            lines_ += *p == '\n';
        }
        bytes_ += static_cast<std::uint64_t>(pptr() - pbase());
        setp(buffer_, buffer_ + sizeof(buffer_));
    }

    char buffer_[4096];
    std::uint64_t hash_ = 14695981039346656037ull;
    std::uint64_t bytes_ = 0;
    std::uint64_t lines_ = 0;
};

/** One grid point: a kernel on a labelled machine. */
struct GoldenCase
{
    std::string workload;
    unsigned osLevel;
    std::string machine;
    core::PortTechConfig tech;
    bool sampled = false;
};

/** Two bus ports over four single-ported banks, with a store buffer
 *  that drains at a threshold. */
core::PortTechConfig
bankedMachine()
{
    core::PortTechConfig tech = core::PortTechConfig::dualPortBase();
    tech.banks = 4;
    tech.storeBufferEntries = 8;
    tech.drainPolicy = core::DrainPolicy::Threshold;
    return tech;
}

/** One 16-byte port with two invalidate-on-write line buffers and a
 *  dedicated fill port. */
core::PortTechConfig
widePortMachine()
{
    core::PortTechConfig tech = core::PortTechConfig::singlePortBase();
    tech.portWidthBytes = 16;
    tech.lineBuffers = 2;
    tech.lineBufferWrite = core::LineBufferWritePolicy::Invalidate;
    tech.fillPolicy = core::FillPolicy::DedicatedFillPort;
    return tech;
}

std::vector<GoldenCase>
goldenGrid()
{
    const std::vector<std::pair<std::string, core::PortTechConfig>>
        machines = {
            {"1p plain", core::PortTechConfig::singlePortBase()},
            {"1p all", core::PortTechConfig::singlePortAllTechniques()},
            {"2 ports", core::PortTechConfig::dualPortBase()},
        };
    std::vector<GoldenCase> grid;
    // The pipe trace formats and disassembles every committed
    // instruction, so the grid keeps the smaller kernels of each
    // workload (scale 1) to stay near ten seconds.
    for (const char *kernel : {"saxpy", "fft", "copy", "strops"}) {
        for (const auto &[label, tech] : machines)
            grid.push_back({kernel, 0, label, tech});
    }
    for (const char *kernel : {"pchase", "spmv"}) {
        for (const auto &[label, tech] : machines)
            grid.push_back({kernel, 2, label, tech});
    }
    grid.push_back({"copy", 0, "2bus 4bank sb8", bankedMachine()});
    grid.push_back({"pchase", 2, "2bus 4bank sb8", bankedMachine()});
    grid.push_back({"strops", 0, "1p 16B lb2", widePortMachine()});
    GoldenCase sampled{"compress", 2, "1p all periodic",
                       core::PortTechConfig::singlePortAllTechniques()};
    sampled.sampled = true;
    grid.push_back(sampled);
    return grid;
}

SimConfig
configFor(const GoldenCase &point)
{
    SimConfig config = SimConfig::defaults();
    config.workloadName = point.workload;
    config.workload.osLevel = point.osLevel;
    config.tech() = point.tech;
    if (point.sampled) {
        // Short periods so the run crosses many phase boundaries, each
        // squashing the in-flight window back into the stream.
        config.sample.mode = SampleParams::Mode::Periodic;
        config.sample.warmupInsts = 500;
        config.sample.measureInsts = 1000;
        config.sample.periodInsts = 5000;
    }
    return config;
}

/**
 * Run @p point the way sim::Simulator does (live functional model,
 * stitched source, phase engine) with the core's pipe trace attached,
 * and describe the run as a stable JSON document.
 */
Json
runDoc(const GoldenCase &point)
{
    SimConfig config = configFor(point);
    config.validateOrThrow();
    func::Executor executor(workload::WorkloadRegistry::instance().build(
        config.workloadName, config.workload));
    mem::MemHierarchy hierarchy(config.l2, config.dram);
    StitchedTraceSource stitched(&executor);
    cpu::OooCore core(config.core, &stitched, &hierarchy);
    HashingBuf pipe_hash;
    std::ostream pipe(&pipe_hash);
    core.setPipeTrace(&pipe);
    SamplePlan plan = config.sample.enabled()
                          ? SampleScheduler::plan(config.sample, 0)
                          : SampleScheduler::degenerate(0);
    PhaseEngine engine(plan, core, stitched, hierarchy,
                       config.sample.confidence);
    Cycle total = engine.run();

    Json stats = Json::object();
    stats[core.statGroup().name()] = core.statGroup().toJson();
    stats[hierarchy.statGroup().name()] = hierarchy.statGroup().toJson();
    HashingBuf stats_hash;
    std::ostream(&stats_hash) << stats.dump(2);

    Json doc = Json::object();
    doc["workload"] = point.workload;
    doc["os_level"] = point.osLevel;
    doc["machine"] = point.machine;
    doc["total_cycles"] = total;
    doc["measured_cycles"] = core.measuredCycles();
    doc["insts"] = core.committedInsts();
    doc["stats_fnv"] = stats_hash.hash();
    doc["stats_bytes"] = stats_hash.bytes();
    doc["pipe_fnv"] = pipe_hash.hash();
    doc["pipe_bytes"] = pipe_hash.bytes();
    doc["pipe_lines"] = pipe_hash.lines();
    return doc;
}

TEST(CoreGolden, StatsAndPipeTraceMatchGolden)
{
    Json runs = Json::array();
    for (const GoldenCase &point : goldenGrid())
        runs.push(runDoc(point));
    const std::string text = runs.dump(2) + "\n";

    const std::string path =
        std::string(CPE_GOLDEN_DIR) + "/core_stats.json";
    if (std::getenv("CPE_REGEN_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << text;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (generate with CPE_REGEN_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    Json want = Json::parse(buffer.str(), "core golden");
    const std::vector<Json> &got = runs.items();
    const std::vector<Json> &expected = want.items();
    ASSERT_EQ(expected.size(), got.size())
        << "grid changed; regenerate the golden file if intentional";
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dump(), expected[i].dump())
            << "timing core drifted on run " << i;
    }
    EXPECT_EQ(buffer.str(), text);
}

} // namespace
} // namespace cpe::sim
