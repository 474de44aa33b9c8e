#include "workloads.hh"

#include <stdexcept>

#include "sim/config_file.hh"

namespace cpebench {

using namespace cpe;

namespace {

struct Kernel
{
    const char *name;
    unsigned scale;
};

struct Machine
{
    const char *label;
    core::PortTechConfig tech;
};

/**
 * The three machines of both workloads: the untreated single port, the
 * single port with every technique, and the dual-ported reference.
 * Labels match experiment F5's columns.
 */
std::vector<Machine>
portMachines()
{
    return {
        {"1p plain", core::PortTechConfig::singlePortBase()},
        {kSinglePortAllLabel,
         core::PortTechConfig::singlePortAllTechniques()},
        {kDualPortLabel, core::PortTechConfig::dualPortBase()},
    };
}

/**
 * kernels x portMachines() at @p os_level, one request per run.  The
 * requests carry the full machine text, which is how a client asks for
 * an arbitrary machine.
 */
Workload
kernelGrid(const std::vector<Kernel> &kernels, unsigned os_level,
           std::uint64_t seed)
{
    Workload workload;
    for (const Kernel &kernel : kernels) {
        for (const Machine &machine : portMachines()) {
            sim::SimConfig config = sim::SimConfig::defaults();
            config.workloadName = kernel.name;
            config.workload.scale = kernel.scale;
            config.workload.seed = seed;
            config.workload.osLevel = os_level;
            config.tech() = machine.tech;
            config.label = machine.label;

            serve::SweepRequest request;
            request.machineText = sim::toMachineFile(config);
            request.jobs = 1;
            workload.requests.push_back(std::move(request));
            workload.grid.push_back(std::move(config));
        }
    }
    return workload;
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    // Scales keep every kernel's run near 0.05-0.2 s on a 4-core Xeon
    // host, so no kernel dominates a pass and a run holds many passes.
    // bsearch is left out of miss_bound: at its smallest size (scale 1,
    // 2.1M instructions) it would take half of every pass.
    if (name == "port_dense") {
        if (tiny)
            return kernelGrid({{"copy", 1}, {"saxpy", 1}}, 0, seed);
        return kernelGrid({{"saxpy", 2}, {"fft", 1}, {"matmul", 1},
                           {"stencil", 1}, {"copy", 2}, {"strops", 1}},
                          0, seed);
    }
    if (name == "miss_bound") {
        if (tiny)
            return kernelGrid({{"pchase", 1}, {"spmv", 1}}, 2, seed);
        return kernelGrid({{"pchase", 2}, {"hashjoin", 1}, {"spmv", 1},
                           {"compress", 1}},
                          2, seed);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace cpebench
