/**
 * @file
 * Machine-file parser tests: key coverage across every section,
 * defaults preservation, comment handling, strict error reporting
 * for typos, and the emitted text pinned byte for byte against
 * tests/golden/machine_files.txt (every resume-journal and result-store
 * key hashes that text; regenerate with CPE_REGEN_GOLDEN=1 only for an
 * intentional format change, which orphans every cached result).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "serve/result_store.hh"
#include "sim/config_file.hh"
#include "sim/run_journal.hh"
#include "sim/simulator.hh"

namespace cpe::sim {
namespace {

/** A thoroughly non-default config (SerializationRoundTrips). */
SimConfig
roundTripConfig()
{
    SimConfig config = SimConfig::defaults();
    config.workloadName = "histogram";
    config.workload.osLevel = 1;
    config.workload.seed = 99;
    config.label = "roundtrip";
    config.core.issueWidth = 2;
    config.core.renameWidth = 2;
    config.core.commitWidth = 2;
    config.core.fetch.fetchWidth = 2;
    config.core.robSize = 32;
    config.core.bpred.kind = cpu::PredictorKind::Local;
    config.core.dcache.cache.assoc = 4;
    config.core.dcache.victimEntries = 4;
    config.core.dcache.nextLinePrefetch = true;
    config.tech() = core::PortTechConfig::singlePortAllTechniques();
    config.tech().drainPolicy = core::DrainPolicy::Threshold;
    config.tech().banks = 2;
    config.l2.hitLatency = 12;
    config.dram.latency = 70;
    return config;
}

/** A labelled config with an armed [chaos] section. */
SimConfig
chaosConfig()
{
    SimConfig config = SimConfig::defaults();
    config.workloadName = "crc";
    config.label = "chaos armed";
    config.chaos.seed = 7;
    config.chaos.rate = 0.1;
    config.chaos.points = "trace.*";
    return config;
}

/**
 * The configs the machine-file golden pins: the defaults, the
 * round-trip config, one config per value of every enum key, a
 * labelled config, and a chaos-armed one.
 */
std::vector<std::pair<std::string, SimConfig>>
goldenConfigs()
{
    std::vector<std::pair<std::string, SimConfig>> out;
    out.emplace_back("defaults", SimConfig::defaults());
    out.emplace_back("roundtrip", roundTripConfig());
    auto add = [&](const std::string &name, auto tweak) {
        SimConfig config = SimConfig::defaults();
        tweak(config);
        out.emplace_back(name, std::move(config));
    };
    using cpu::PredictorKind;
    for (auto [name, kind] :
         {std::pair{"gshare", PredictorKind::GShare},
          std::pair{"bimodal", PredictorKind::Bimodal},
          std::pair{"local", PredictorKind::Local},
          std::pair{"not_taken", PredictorKind::AlwaysNotTaken}})
        add(std::string("bpred.kind=") + name,
            [kind](SimConfig &c) { c.core.bpred.kind = kind; });
    using core::DrainPolicy;
    for (auto [name, policy] :
         {std::pair{"idle", DrainPolicy::IdleOnly},
          std::pair{"eager", DrainPolicy::Eager},
          std::pair{"threshold", DrainPolicy::Threshold}})
        add(std::string("tech.drain=") + name,
            [policy](SimConfig &c) { c.tech().drainPolicy = policy; });
    using core::LineBufferWritePolicy;
    for (auto [name, policy] :
         {std::pair{"patch", LineBufferWritePolicy::Update},
          std::pair{"invalidate", LineBufferWritePolicy::Invalidate}})
        add(std::string("tech.line_buffer_write=") + name,
            [policy](SimConfig &c) {
                c.tech().lineBufferWrite = policy;
            });
    using core::FillPolicy;
    for (auto [name, policy] :
         {std::pair{"steal", FillPolicy::StealPort},
          std::pair{"dedicated", FillPolicy::DedicatedFillPort}})
        add(std::string("tech.fill=") + name,
            [policy](SimConfig &c) { c.tech().fillPolicy = policy; });
    using Mode = SampleParams::Mode;
    for (auto [name, mode] : {std::pair{"off", Mode::Off},
                              std::pair{"periodic", Mode::Periodic},
                              std::pair{"fixed", Mode::Fixed}})
        add(std::string("sample.mode=") + name,
            [mode](SimConfig &c) { c.sample.mode = mode; });
    add("labelled", [](SimConfig &c) {
        c.workloadName = "copy";
        c.label = "2 ports, wide";
        c.tech() = core::PortTechConfig::dualPortBase();
    });
    out.emplace_back("chaos", chaosConfig());
    return out;
}

TEST(ConfigFile, EmptyFileYieldsDefaults)
{
    auto parsed = parseConfig("");
    ASSERT_TRUE(parsed) << parsed.error;
    SimConfig defaults = SimConfig::defaults();
    EXPECT_EQ(parsed.config.workloadName, defaults.workloadName);
    EXPECT_EQ(parsed.config.core.issueWidth, defaults.core.issueWidth);
    EXPECT_EQ(parsed.config.tech().ports, defaults.tech().ports);
}

TEST(ConfigFile, FullMachineDescription)
{
    auto parsed = parseConfig(R"(
# The paper's headline configuration, as a machine file.
workload = copy
os_level = 1
scale = 2
seed = 7
warmup_insts = 1000
label = headline

[core]
issue_width = 8
rename_width = 8
commit_width = 8
fetch_width = 8
rob = 128
iq = 64
lq = 32
sq = 32
decode_latency = 3
redirect_penalty = 4

[bpred]
kind = bimodal
table_entries = 1024
btb_entries = 256
ras = 16

[l1d]
size_kib = 32
assoc = 4
line = 32
hit_latency = 2
mshrs = 16
victim_entries = 4
prefetch_next_line = true

[l1i]
size_kib = 32
assoc = 1

[tech]
ports = 1
width = 32
banks = 2
store_buffer = 8
combining = true
drain = threshold
drain_threshold = 6
line_buffers = 4
line_buffer_write = invalidate
flush_on_mode_switch = false
fill = dedicated
fill_cycles = 3

[l2]
size_kib = 1024
assoc = 8
hit_latency = 10

[dram]
latency = 80
cycles_per_line = 8
    )");
    ASSERT_TRUE(parsed) << parsed.error;
    const SimConfig &config = parsed.config;

    EXPECT_EQ(config.workloadName, "copy");
    EXPECT_EQ(config.workload.osLevel, 1u);
    EXPECT_EQ(config.workload.scale, 2u);
    EXPECT_EQ(config.workload.seed, 7u);
    EXPECT_EQ(config.warmupInsts, 1000u);
    EXPECT_EQ(config.label, "headline");

    EXPECT_EQ(config.core.issueWidth, 8u);
    EXPECT_EQ(config.core.robSize, 128u);
    EXPECT_EQ(config.core.lsq.loadEntries, 32u);
    EXPECT_EQ(config.core.decodeLatency, 3u);
    EXPECT_EQ(config.core.fetch.redirectPenalty, 4u);

    EXPECT_EQ(config.core.bpred.kind, cpu::PredictorKind::Bimodal);
    EXPECT_EQ(config.core.bpred.rasEntries, 16u);

    EXPECT_EQ(config.core.dcache.cache.sizeBytes, 32u * 1024);
    EXPECT_EQ(config.core.dcache.cache.assoc, 4u);
    EXPECT_EQ(config.core.dcache.hitLatency, 2u);
    EXPECT_EQ(config.core.dcache.victimEntries, 4u);
    EXPECT_TRUE(config.core.dcache.nextLinePrefetch);
    EXPECT_EQ(config.core.fetch.icache.sizeBytes, 32u * 1024);
    EXPECT_EQ(config.core.fetch.icache.assoc, 1u);

    EXPECT_EQ(config.tech().ports, 1u);
    EXPECT_EQ(config.tech().portWidthBytes, 32u);
    EXPECT_EQ(config.tech().banks, 2u);
    EXPECT_EQ(config.tech().storeBufferEntries, 8u);
    EXPECT_EQ(config.tech().drainPolicy, core::DrainPolicy::Threshold);
    EXPECT_EQ(config.tech().drainThreshold, 6u);
    EXPECT_EQ(config.tech().lineBufferWrite,
              core::LineBufferWritePolicy::Invalidate);
    EXPECT_FALSE(config.tech().flushLineBuffersOnModeSwitch);
    EXPECT_EQ(config.tech().fillPolicy,
              core::FillPolicy::DedicatedFillPort);
    EXPECT_EQ(config.tech().fillOccupancyCycles, 3u);

    EXPECT_EQ(config.l2.cache.sizeBytes, 1024u * 1024);
    EXPECT_EQ(config.dram.latency, 80u);
    EXPECT_EQ(config.dram.cyclesPerLine, 8u);
}

TEST(ConfigFile, ParsedConfigActuallySimulates)
{
    setVerbose(false);
    auto parsed = parseConfig(R"(
workload = crc
[tech]
ports = 2
    )");
    ASSERT_TRUE(parsed) << parsed.error;
    auto result = simulate(parsed.config);
    EXPECT_EQ(result.workload, "crc");
    EXPECT_GT(result.insts, 0u);

    // And it matches the equivalent C++-built configuration exactly.
    auto direct = simulate("crc", core::PortTechConfig::dualPortBase());
    EXPECT_EQ(result.cycles, direct.cycles);
}

TEST(ConfigFile, CommentsAndWhitespace)
{
    auto parsed = parseConfig(
        "  workload = sort   # trailing\n; full-line\n\n[tech]\n"
        "ports=2\n");
    ASSERT_TRUE(parsed) << parsed.error;
    EXPECT_EQ(parsed.config.workloadName, "sort");
    EXPECT_EQ(parsed.config.tech().ports, 2u);
}

TEST(ConfigFile, UnknownSectionIsAnError)
{
    auto parsed = parseConfig("[cachez]\nsize_kib = 16\n");
    EXPECT_FALSE(parsed);
    EXPECT_NE(parsed.error.find("unknown section"), std::string::npos);
    EXPECT_NE(parsed.error.find("line 1"), std::string::npos);
}

TEST(ConfigFile, UnknownKeyIsAnError)
{
    auto parsed = parseConfig("[tech]\nportz = 2\n");
    EXPECT_FALSE(parsed);
    EXPECT_NE(parsed.error.find("portz"), std::string::npos);
    EXPECT_NE(parsed.error.find("line 2"), std::string::npos);
}

TEST(ConfigFile, BadValuesAreErrors)
{
    EXPECT_FALSE(parseConfig("[tech]\nports = many\n"));
    EXPECT_FALSE(parseConfig("[tech]\ncombining = maybe\n"));
    EXPECT_FALSE(parseConfig("[tech]\ndrain = sometimes\n"));
    EXPECT_FALSE(parseConfig("[bpred]\nkind = psychic\n"));
    EXPECT_FALSE(parseConfig("just some text\n"));
    EXPECT_FALSE(parseConfig("[tech\nports = 1\n"));
    EXPECT_FALSE(parseConfig("[l1d]\nsize_kib = big\n"));
    EXPECT_FALSE(parseConfig("[sample]\nconfidence = high\n"));

    // Enum errors name the allowed values; range errors the range.
    auto kind = parseConfig("[bpred]\nkind = psychic\n");
    EXPECT_NE(kind.error.find("line 2"), std::string::npos);
    EXPECT_NE(kind.error.find("gshare, bimodal, local, not_taken"),
              std::string::npos)
        << kind.error;
    auto mode = parseConfig("[sample]\nmode = sometimes\n");
    EXPECT_NE(mode.error.find("off, periodic, fixed"), std::string::npos)
        << mode.error;
    auto rate = parseConfig("[chaos]\nrate = 1.5\n");
    EXPECT_FALSE(rate);
    EXPECT_NE(rate.error.find("outside [0, 1]"), std::string::npos)
        << rate.error;
}

TEST(ConfigFile, SerializationRoundTrips)
{
    // Build a thoroughly non-default config, serialize it, and parse
    // it back: the simulated behaviour must be identical (checked by
    // cycle-exact equality of a run).
    setVerbose(false);
    SimConfig config = roundTripConfig();

    std::string text = toMachineFile(config);
    auto parsed = parseConfig(text);
    ASSERT_TRUE(parsed) << parsed.error << "\nfile was:\n" << text;

    auto a = simulate(config);
    auto b = simulate(parsed.config);
    EXPECT_EQ(a.cycles, b.cycles) << text;
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(parsed.config.label, "roundtrip");
}

TEST(ConfigFile, MachineFilesMatchGolden)
{
    // The emitted text of every golden config, plus the journal and
    // store keys derived from it: a byte of drift here orphans every
    // cached result.
    std::ostringstream golden;
    golden << "# toMachineFile() text and cache keys "
              "(regenerate with CPE_REGEN_GOLDEN=1)\n";
    for (const auto &[name, config] : goldenConfigs()) {
        std::string text = toMachineFile(config);
        EXPECT_EQ(canonicalMachineFile(text), text)
            << name << ": canonical form is not a fixed point";
        golden << "=== " << name << "\n" << text;
        if (name == "defaults" || name == "roundtrip" || name == "chaos")
            golden << "--- keys\njournal = " << RunJournal::keyFor(config)
                   << "\nstore F5 = "
                   << serve::ResultStore::keyFor(text, "F5") << "\n";
    }

    const std::string path =
        std::string(CPE_GOLDEN_DIR) + "/machine_files.txt";
    if (std::getenv("CPE_REGEN_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << golden.str();
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (generate with CPE_REGEN_GOLDEN=1)";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), golden.str());
}

TEST(ConfigFile, DescribeNamesEveryPredictorKind)
{
    using cpu::PredictorKind;
    for (auto [name, kind] :
         {std::pair{"gshare", PredictorKind::GShare},
          std::pair{"bimodal", PredictorKind::Bimodal},
          std::pair{"local", PredictorKind::Local},
          std::pair{"not_taken", PredictorKind::AlwaysNotTaken}}) {
        SimConfig config = SimConfig::defaults();
        config.core.bpred.kind = kind;
        std::string want = std::string("branch predictor") +
                           std::string(12, ' ') + name + " " +
                           std::to_string(config.core.bpred.tableEntries) +
                           "\n";
        EXPECT_NE(config.describe().find(want), std::string::npos)
            << name << ":\n" << config.describe();
    }
}

/**
 * The keys docs/machine_files.md documents, per section: every
 * backticked token in a table row's first column, filed under each
 * `[section]` its heading names ("Top level" is section "").
 */
std::map<std::string, std::set<std::string>>
documentedKeys()
{
    const std::string path =
        std::string(CPE_SOURCE_DIR) + "/docs/machine_files.md";
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::map<std::string, std::set<std::string>> keys;
    std::vector<std::string> sections;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            sections.clear();
            if (line.find("Top level") != std::string::npos)
                sections.push_back("");
            for (auto open = line.find("`["); open != std::string::npos;
                 open = line.find("`[", open + 1))
                sections.push_back(line.substr(
                    open + 2, line.find("]`", open) - open - 2));
        } else if (line.rfind("| `", 0) == 0) {
            std::string cell = line.substr(1, line.find('|', 1) - 1);
            for (auto open = cell.find('`'); open != std::string::npos;) {
                auto close = cell.find('`', open + 1);
                for (const auto &section : sections)
                    keys[section].insert(
                        cell.substr(open + 1, close - open - 1));
                open = cell.find('`', close + 1);
            }
        }
    }
    return keys;
}

TEST(ConfigFile, EveryEmittedKeyIsDocumented)
{
    // A labelled, chaos-armed config emits every key toMachineFile()
    // can write; each must appear in its section's table.
    auto documented = documentedKeys();
    std::istringstream text(toMachineFile(chaosConfig()));
    std::string section;
    std::string line;
    unsigned keys = 0;
    while (std::getline(text, line)) {
        if (line.empty() || line.front() == '#')
            continue;
        if (line.front() == '[') {
            section = line.substr(1, line.size() - 2);
            continue;
        }
        std::string key = line.substr(0, line.find(" = "));
        ++keys;
        EXPECT_TRUE(documented[section].count(key))
            << "[" << section << "] " << key
            << " is missing from docs/machine_files.md";
    }
    EXPECT_GT(keys, 60u);
}

TEST(ConfigFile, ShippedExampleParses)
{
    auto parsed = loadConfigFile(std::string(CPE_SOURCE_DIR) +
                                 "/examples/headline.ini");
    ASSERT_TRUE(parsed) << parsed.error;
    EXPECT_EQ(parsed.config.label, "headline");
    EXPECT_EQ(parsed.config.tech().ports, 1u);
    EXPECT_EQ(parsed.config.tech().portWidthBytes, 32u);
    EXPECT_EQ(parsed.config.tech().storeBufferEntries, 8u);
    EXPECT_TRUE(parsed.config.tech().storeCombining);
    EXPECT_EQ(parsed.config.tech().lineBuffers, 4u);
}

TEST(ConfigFile, MissingFileReportsError)
{
    auto parsed = loadConfigFile("/nonexistent/machine.ini");
    EXPECT_FALSE(parsed);
    EXPECT_NE(parsed.error.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace cpe::sim
