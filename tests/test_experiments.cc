/**
 * @file
 * Experiment-registry tests: every registered experiment exposes a
 * well-formed primary grid (what the regression gate replays), and a
 * reduced-scale F5 run reproduces a sane headline ratio end to end.
 */

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/driver.hh"
#include "exp/registry.hh"
#include "workload/registry.hh"
#include "util/error.hh"

#include "expect_error.hh"

namespace cpe::exp {
namespace {

TEST(ExperimentRegistry, AllExperimentsRegistered)
{
    const std::vector<std::string> expected = {
        "T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5",
        "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13"};
    EXPECT_EQ(ExperimentRegistry::instance().ids(), expected);
}

TEST(ExperimentRegistry, LookupIsCaseExact)
{
    auto &registry = ExperimentRegistry::instance();
    EXPECT_TRUE(registry.has("F5"));
    EXPECT_FALSE(registry.has("F99"));
    EXPECT_EQ(registry.get("F5").id, "F5");
    const Experiment *found = registry.find("F99");
    EXPECT_EQ(found, nullptr);
}

TEST(ExperimentRegistryErrors, UnknownIdThrowsConfigError)
{
    // get() is the user-facing path (--run ids); its message lists
    // what is registered.
    CPE_EXPECT_THROW_MSG(ExperimentRegistry::instance().get("F99"),
                         ConfigError, "F5");
}

TEST(ExperimentRegistry, EveryExperimentHasAWellFormedPrimaryGrid)
{
    auto &workloads = workload::WorkloadRegistry::instance();
    std::set<std::string> seen_ids;
    for (const Experiment *experiment :
         ExperimentRegistry::instance().all()) {
        SCOPED_TRACE(experiment->id);
        EXPECT_TRUE(seen_ids.insert(experiment->id).second);
        EXPECT_FALSE(experiment->title.empty());
        ASSERT_TRUE(experiment->variants);
        ASSERT_TRUE(experiment->run);

        auto variants = experiment->variants();
        ASSERT_FALSE(variants.empty());
        std::set<std::string> labels;
        for (const auto &variant : variants) {
            EXPECT_FALSE(variant.label.empty());
            EXPECT_TRUE(labels.insert(variant.label).second)
                << "duplicate variant label " << variant.label;
        }
        // The baseline, when named, must be one of the grid's columns.
        if (!experiment->baseline.empty())
            EXPECT_TRUE(labels.count(experiment->baseline))
                << "baseline '" << experiment->baseline
                << "' is not a variant label";
        for (const auto &name : experiment->workloads)
            EXPECT_TRUE(workloads.has(name))
                << "unknown workload " << name;

        // The grid expands into runnable configs for the gate.
        auto configs = suiteConfigs(variants, reducedSuite(), {});
        EXPECT_EQ(configs.size(),
                  variants.size() * reducedSuite().size());
    }
}

TEST(ExperimentRegistry, ReducedSuiteIsRunnable)
{
    // The gate's default workloads must exist and cover the three
    // workload classes (int, fp, mem).
    auto &registry = workload::WorkloadRegistry::instance();
    ASSERT_EQ(reducedSuite().size(), 3u);
    for (const auto &name : reducedSuite())
        EXPECT_TRUE(registry.has(name));
}

TEST(Experiments, ReducedF5RunProducesHeadline)
{
    const Experiment &f5 = ExperimentRegistry::instance().get("F5");
    std::ostringstream out;
    Context context(f5, out, {}, reducedSuite());
    f5.run(context);

    // The rendered output still carries the paper's framing...
    EXPECT_NE(out.str().find("HEADLINE"), std::string::npos);
    EXPECT_NE(out.str().find("Performance relative to '2 ports'"),
              std::string::npos);

    // ...and the JSON document carries the machine-readable ratios.
    const Json &doc = context.doc();
    EXPECT_EQ(doc.at("experiment").asString(), "F5");
    const Json &grid = doc.at("grids").at("main");
    EXPECT_EQ(grid.at("workloads").items().size(), 3u);
    EXPECT_EQ(grid.at("configs").items().size(), 7u);

    double headline =
        doc.at("headlines").at("pct_of_dual_plain").asNumber();
    EXPECT_GT(headline, 0.0);
    EXPECT_LT(headline, 120.0);
}

} // namespace
} // namespace cpe::exp
