/**
 * @file
 * cpebench: host speed, port efficiency and served-sweep latency of the
 * simulator on one named workload.
 *
 *   cpebench --workload NAME --seed N --seconds S --trace 0|1
 *            --out DIR [--git-rev REV] [--tiny] [--sabotage]
 *
 * One run, all in this process:
 *
 *  1. Set-up, repeated kSetupReps times (median = setup_s): build and
 *     capture every program of the workload's grid into a fresh
 *     TraceCache, and start a server over an empty result store.
 *  2. For --seconds, interleaved:
 *     - direct passes: every config of the grid through sim::simulate,
 *       serially, replaying the warm captures; modelled caches start
 *       empty in every run, as in the paper; one HostProbe sample
 *       before each call sets the scale of the run's host timings;
 *     - served cycles: a fresh store behind an in-process
 *       serve::Server, then a cold pass and identical warm passes of
 *       the workload's requests from a closed loop of serve::Clients.
 *  3. With --trace 1 only: probes that time each layer's public calls
 *     on the workload's own programs (component drives for core and
 *     mem, observability slowdowns, sampled runs).
 *
 * Every output is checked (instruction counts against the functional
 * model, repeatable statsJson, served results byte-identical to direct
 * ones, warm results from the store); a failed check counts as a failed
 * operation.  The last line of stdout is one JSON object with the
 * metrics; README.md defines each of them.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "drives.hh"
#include "func/executor.hh"
#include "obs/tracer.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "serve/server.hh"
#include "sim/config_file.hh"
#include "sim/run_journal.hh"
#include "sim/simulator.hh"
#include "sim/trace_cache.hh"
#include "host_probe.hh"
#include "spans.hh"
#include "util/error.hh"
#include "workload/registry.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace cpe;
using namespace cpebench;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr unsigned kSetupReps = 9;

/**
 * Warm passes per served cycle.  A warm pass takes milliseconds, so
 * several per cycle give its latencies as many samples, spread over the
 * run, as the cold pass gets.
 */
constexpr unsigned kWarmPasses = 5;

/**
 * Timings report this percentile as *_tail.  Each phase guarantees at
 * least kMinSamples samples, so at least ten lie beyond it.
 */
constexpr double kTailPct = 75.0;
constexpr std::size_t kMinSamples = 40;

/** Share of the measured time given to direct passes. */
constexpr double kDirectShare = 0.5;

/** The seed kept out of tuning, for checking a claimed gain. */
constexpr std::uint64_t kHeldOutSeed = 1729;

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
    std::string gitRev = "unavailable";
    bool tiny = false;
    bool sabotage = false;
};

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "cpebench: " << message
              << "\nusage: cpebench --workload NAME --seed N --seconds S"
                 " --trace 0|1 --out DIR [--git-rev REV] [--tiny]"
                 " [--sabotage]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload")
                args.workload = value();
            else if (flag == "--seed")
                args.seed = std::stoull(value());
            else if (flag == "--seconds")
                args.seconds = std::stod(value());
            else if (flag == "--trace")
                args.trace = std::stoi(value()) != 0;
            else if (flag == "--out")
                args.outDir = value();
            else if (flag == "--git-rev")
                args.gitRev = value();
            else if (flag == "--tiny")
                args.tiny = true;
            else if (flag == "--sabotage")
                args.sabotage = true;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag);
        }
    }
    if (args.workload.empty() || args.outDir.empty())
        usage("--workload and --out are required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

// ---------------------------------------------------------------------
// Statistics helpers.

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
    std::size_t low = static_cast<std::size_t>(rank);
    std::size_t high = std::min(low + 1, values.size() - 1);
    double frac = rank - static_cast<double>(low);
    return values[low] + (values[high] - values[low]) * frac;
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += std::log(v);
    return std::exp(sum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf)
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
        std::string model(reinterpret_cast<const char *>(regs), 48);
        model = model.c_str();
        auto first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : model.substr(first);
    }
#endif
    return "unknown";
}

double
loadAverage()
{
    double load[1] = {0.0};
    return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

// ---------------------------------------------------------------------
// Output checks.

/** Operation tally plus the first few failure messages. */
class Checker
{
  public:
    explicit Checker(bool sabotage) : sabotage_(sabotage) {}

    /** Count one operation; @p problem empty means it passed. */
    void
    op(const std::string &problem)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        if (problem.empty())
            return;
        ++failed_;
        if (messages_.size() < 20)
            messages_.push_back(problem);
    }

    /**
     * Problems with @p result as a run of @p config over a stream of
     * @p stream_insts committed instructions (empty = none).
     */
    std::string
    checkRun(const sim::SimConfig &config, const sim::SimResult &result,
             std::uint64_t stream_insts) const
    {
        // --sabotage: expect one instruction too many, so the self-test
        // can prove a wrong expectation is caught.
        std::uint64_t expected = stream_insts + (sabotage_ ? 1 : 0);
        std::ostringstream problem;
        if (result.sampled) {
            if (!result.insts || result.insts + result.ffInsts > expected)
                problem << "sampled run measured " << result.insts
                        << " + fast-forwarded " << result.ffInsts
                        << " of a " << expected << "-inst stream";
        } else if (result.insts != expected) {
            problem << "committed " << result.insts
                    << " instructions, functional model ran " << expected;
        }
        std::string text = problem.str();
        return text.empty() ? text
                            : config.workloadName + " [" + config.tag() +
                                  "]: " + text;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    bool sabotage_;
    std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------
// Phases.

struct RunState
{
    Args args;
    Workload workload;
    SpanLog spans;
    Checker checker;
    HostProbe probe;
    fs::path scratch; ///< per-process stores and socket
    std::string socketPath;

    std::unique_ptr<sim::TraceCache> cache; ///< warm, from set-up
    std::vector<std::uint64_t> streamInsts; ///< per grid config

    /** Reference results, from the first direct pass. */
    std::vector<sim::SimResult> reference;
    std::vector<std::string> referenceJson;
    std::vector<double> referenceSeconds;

    RunState(Args a, Workload w)
        : args(std::move(a)), workload(std::move(w)), spans(args.trace),
          checker(args.sabotage)
    {
    }
};

/** Fresh, empty directory under the run's scratch space. */
fs::path
freshDir(const RunState &state, const std::string &name)
{
    fs::path dir = state.scratch / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** One set-up: captures into a fresh cache, server over an empty store. */
double
setupOnce(RunState &state, unsigned rep)
{
    SpanLog::Scope span(state.spans, "bench", "setup");
    // Each set-up starts from nothing: drop the previous one's captures.
    state.cache.reset();
    auto start = Clock::now();
    auto cache = std::make_unique<sim::TraceCache>();
    std::vector<std::uint64_t> insts;
    for (const sim::SimConfig &config : state.workload.grid) {
        SpanLog::Scope acquire(state.spans, "sim", "acquire_capture");
        insts.push_back(cache->acquire(config)->size());
    }
    {
        SpanLog::Scope serve(state.spans, "serve", "start_empty_store");
        serve::ResultStore store(
            freshDir(state, "setup-store-" + std::to_string(rep)).string());
        serve::ServerOptions options;
        options.socketPath = state.socketPath;
        options.jobs = 1;
        serve::Server server(options, &store);
        server.start();
        server.stop();
    }
    double elapsed = seconds(start, Clock::now());
    state.cache = std::move(cache);
    state.streamInsts = std::move(insts);
    return elapsed;
}

struct DirectStats
{
    std::vector<double> callMs;
    std::vector<double> passSeconds;
    std::vector<bool> passTraced;
    std::vector<double> probeUs; ///< one HostProbe sample per call
    double simSeconds = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    // Traced-run split of each simulate call.
    std::vector<double> acquireUs;
    double cpuSeconds = 0.0; ///< simulate minus its warm acquire
    std::uint64_t tracedInsts = 0;
    std::uint64_t tracedCycles = 0;
};

/**
 * One serial pass over the grid: the simulator's speed as a single run
 * sees it, without the sweep's contention for shared caches and memory
 * bandwidth.  @return the pass wall seconds.
 */
double
directPass(RunState &state, DirectStats &stats, bool traced)
{
    SpanLog::Scope pass(state.spans, "bench", "direct_pass");
    auto pass_start = Clock::now();
    const auto &grid = state.workload.grid;

    bool first = state.reference.empty();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        sim::SimConfig config = grid[i];
        config.traceCache = state.cache.get();
        stats.probeUs.push_back(state.probe.sampleUs());
        double acquire_s = 0.0;
        if (traced) {
            // Time the warm acquire that simulate() is about to repeat:
            // the timing core's own time is simulate minus this.
            SpanLog::Scope span(state.spans, "sim", "acquire_hit");
            auto start = Clock::now();
            state.cache->acquire(config);
            acquire_s = seconds(start, Clock::now());
        }
        sim::SimResult result;
        std::string problem;
        auto start = Clock::now();
        try {
            SpanLog::Scope span(state.spans, "cpu", "simulate");
            result = sim::simulate(config);
        } catch (const std::exception &error) {
            problem = config.workloadName + ": " + error.what();
        }
        double elapsed = seconds(start, Clock::now());
        stats.callMs.push_back(elapsed * 1e3);
        stats.simSeconds += elapsed;
        stats.insts += result.insts;
        stats.cycles += result.cycles;
        if (traced) {
            stats.acquireUs.push_back(acquire_s * 1e6);
            stats.cpuSeconds += elapsed - acquire_s;
            stats.tracedInsts += result.insts;
            stats.tracedCycles += result.cycles;
        }
        if (problem.empty())
            problem = state.checker.checkRun(config, result,
                                             state.streamInsts[i]);
        if (first) {
            state.referenceJson.push_back(sim::resultToJson(result).dump());
            state.referenceSeconds.push_back(elapsed);
            state.reference.push_back(std::move(result));
        } else if (problem.empty() &&
                   result.statsJson != state.reference[i].statsJson) {
            problem = config.workloadName + " [" + config.tag() +
                      "]: statsJson differs between repetitions";
        }
        state.checker.op(problem);
    }
    return seconds(pass_start, Clock::now());
}

struct ServedStats
{
    std::vector<double> coldWallS;
    std::vector<double> coldMs;
    std::vector<double> warmMs;
    std::map<std::string, std::uint64_t> sources;
    std::uint64_t resultRecords = 0;
    std::uint64_t resultBytes = 0;
    std::vector<double> storeFetchUs;
    std::uint64_t storeLookups = 0;
    std::uint64_t storeHits = 0;
    unsigned cycles = 0;
};

/**
 * One pass of every request from a closed loop of clients (each sends
 * its next request only after the previous reply is complete).
 * @return the pass wall time, seconds.
 */
double
servedPass(RunState &state, ServedStats &stats, bool warm,
           std::vector<double> &latencies_ms)
{
    SpanLog::Scope pass(state.spans, "bench",
                        warm ? "warm_pass" : "cold_pass");
    const auto &requests = state.workload.requests;
    // Cold: min(4, nproc) clients; each request runs with jobs = 1, so
    // at most that many simulations run at once.  Warm: one client, so
    // a store hit is timed without other clients' wake-ups competing
    // for the same cores.
    unsigned clients = 1;
    if (!warm)
        clients = static_cast<unsigned>(std::min<std::size_t>(
            {4, std::max(1u, std::thread::hardware_concurrency()),
             requests.size()}));
    std::atomic<std::size_t> next{0};
    std::mutex merge_mutex;
    std::vector<double> pass_ms(requests.size());
    auto start = Clock::now();

    auto client_loop = [&]() {
        std::map<std::string, std::uint64_t> local_sources;
        std::uint64_t records = 0, bytes = 0;
        std::unique_ptr<serve::Client> client;
        for (std::size_t i = next++; i < requests.size(); i = next++) {
            std::string problem;
            std::size_t results = 0;
            auto t0 = Clock::now();
            try {
                SpanLog::Scope span(state.spans, "serve", "request",
                                    pass.id());
                if (!client)
                    client = std::make_unique<serve::Client>(
                        state.socketPath);
                Json done = client->sweep(
                    requests[i], [&](const Json &record) {
                        const Json *type = record.find("t");
                        if (!type || type->asString() != "result")
                            return;
                        ++results;
                        std::string source = record.at("source").asString();
                        std::string body = record.at("result").dump();
                        ++local_sources[source];
                        ++records;
                        bytes += body.size();
                        if (body != state.referenceJson[i])
                            problem = "served result for " +
                                      state.workload.grid[i].workloadName +
                                      " differs from direct simulate";
                        else if (warm ? source != "store"
                                      : source == "store")
                            problem = std::string(warm ? "warm" : "cold") +
                                      " result from source " + source;
                    });
                if (done.at("t").asString() != "done")
                    problem = "request failed: " + done.dump();
                else if (results != 1)
                    problem = "request returned " + std::to_string(results) +
                              " results, not 1";
            } catch (const std::exception &error) {
                problem = std::string("request error: ") + error.what();
                client.reset();
            }
            pass_ms[i] = seconds(t0, Clock::now()) * 1e3;
            state.checker.op(problem);
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        for (const auto &[source, count] : local_sources)
            stats.sources[source] += count;
        stats.resultRecords += records;
        stats.resultBytes += bytes;
    };

    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(client_loop);
    for (std::thread &thread : threads)
        thread.join();
    double wall = seconds(start, Clock::now());
    latencies_ms.insert(latencies_ms.end(), pass_ms.begin(), pass_ms.end());
    return wall;
}

/** One cold pass, then kWarmPasses identical warm passes, against a
 *  fresh store. */
void
servedCycle(RunState &state, ServedStats &stats)
{
    SpanLog::Scope span(state.spans, "bench", "served_cycle");
    fs::path dir = freshDir(state, "store");
    {
        serve::ResultStore store(dir.string());
        serve::ServerOptions options;
        options.socketPath = state.socketPath;
        options.jobs = 1;
        serve::Server server(options, &store);
        server.start();
        stats.coldWallS.push_back(
            servedPass(state, stats, false, stats.coldMs));
        for (unsigned pass = 0; pass < kWarmPasses; ++pass)
            servedPass(state, stats, true, stats.warmMs);
        server.stop();

        if (state.args.trace) {
            // ResultStore hits, timed from outside the server.
            for (const sim::SimConfig &config : state.workload.grid) {
                std::string key = serve::ResultStore::keyFor(
                    sim::toMachineFile(config), "");
                sim::SimResult result;
                SpanLog::Scope fetch(state.spans, "serve", "store_fetch");
                auto t0 = Clock::now();
                bool hit = store.lookup(key, result);
                stats.storeFetchUs.push_back(
                    seconds(t0, Clock::now()) * 1e6);
                ++stats.storeLookups;
                stats.storeHits += hit;
            }
        }
    }
    fs::remove_all(dir);
    ++stats.cycles;
}

/**
 * Direct passes and served cycles, interleaved so that slow spells of
 * a shared host fall on both alike.  Whole passes and cycles only, so
 * every config and request weighs the same in the percentiles.  Runs
 * until --seconds is used and each kind of latency has kMinSamples
 * samples; a traced run also gets at least two direct passes with span
 * recording and two without, alternating, so that the recording
 * overhead is measured on identical work.
 */
void
measure(RunState &state, DirectStats &direct, ServedStats &served,
        Clock::time_point run_start)
{
    const bool trace = state.args.trace;
    double direct_s = 0.0, served_s = 0.0;
    auto direct_short = [&]() {
        return direct.callMs.size() < kMinSamples ||
               (trace && direct.passSeconds.size() < 4);
    };
    auto served_short = [&]() {
        return !state.workload.requests.empty() &&
               served.coldMs.size() < kMinSamples;
    };
    while (direct_short() || served_short() ||
           seconds(run_start, Clock::now()) < state.args.seconds) {
        bool run_direct =
            direct_short() ||
            (!served_short() &&
             direct_s * (1.0 - kDirectShare) <= served_s * kDirectShare);
        auto start = Clock::now();
        if (run_direct) {
            bool traced = trace && direct.passSeconds.size() % 2 == 0;
            state.spans.setRecording(!trace || traced);
            direct.passSeconds.push_back(directPass(state, direct, traced));
            direct.passTraced.push_back(traced);
            state.spans.setRecording(true);
            direct_s += seconds(start, Clock::now());
        } else {
            servedCycle(state, served);
            served_s += seconds(start, Clock::now());
        }
    }
}

// ---------------------------------------------------------------------
// Traced-run probes.

struct ProbeStats
{
    std::vector<double> buildMs;
    double captureSeconds = 0.0;
    std::uint64_t capturedInsts = 0;
    std::uint64_t traceBytes = 0;
    std::vector<double> warmIndexMs;
    DriveTiming dcache, l1, fetchLine;
    double offSeconds = 0.0, tracedSeconds = 0.0, profiledSeconds = 0.0;
    double sampledSeconds = 0.0;
    std::uint64_t sampledStream = 0, ffInsts = 0;
};

void
accumulate(DriveTiming &total, const DriveTiming &one)
{
    total.seconds += one.seconds;
    total.operations += one.operations;
    total.completed = total.completed && one.completed;
}

ProbeStats
probePhase(RunState &state)
{
    SpanLog::Scope probe_span(state.spans, "bench", "probes");
    ProbeStats probe;
    const auto &grid = state.workload.grid;
    auto &registry = workload::WorkloadRegistry::instance();

    // Distinct programs (workload + functional knobs) and, per program,
    // the distinct machines that run it.
    std::map<std::string, std::vector<std::size_t>> programs;
    for (std::size_t i = 0; i < grid.size(); ++i)
        programs[sim::TraceCache::key(grid[i])].push_back(i);

    for (const auto &[key, runs] : programs) {
        const sim::SimConfig &first = grid[runs.front()];
        prog::Program program;
        {
            SpanLog::Scope span(state.spans, "workload", "build");
            auto start = Clock::now();
            program = registry.build(first.workloadName, first.workload);
            probe.buildMs.push_back(seconds(start, Clock::now()) * 1e3);
        }
        std::unique_ptr<func::CapturedTrace> trace;
        {
            SpanLog::Scope span(state.spans, "func", "capture");
            auto start = Clock::now();
            func::Executor executor(std::move(program));
            trace = std::make_unique<func::CapturedTrace>(
                func::CapturedTrace::capture(executor));
            probe.captureSeconds += seconds(start, Clock::now());
        }
        probe.capturedInsts += trace->size();
        probe.traceBytes += trace->memoryBytes();
        {
            SpanLog::Scope span(state.spans, "func", "warm_index");
            auto start = Clock::now();
            trace->warmIndex(first.core.fetch.icache.lineBytes,
                             first.core.dcache.cache.lineBytes);
            probe.warmIndexMs.push_back(seconds(start, Clock::now()) * 1e3);
        }

        std::vector<MemOp> ops = memStream(*trace);
        std::set<std::string> machines;
        for (std::size_t i : runs) {
            if (!machines.insert(grid[i].tech().describe()).second)
                continue;
            SpanLog::Scope span(state.spans, "core", "dcache_drive");
            accumulate(probe.dcache, driveDCache(ops, grid[i]));
        }
        std::vector<Addr> miss_lines;
        {
            SpanLog::Scope span(state.spans, "mem", "l1_drive");
            accumulate(probe.l1, driveL1(ops, first, miss_lines));
        }
        {
            SpanLog::Scope span(state.spans, "mem", "fetch_line_drive");
            accumulate(probe.fetchLine, driveFetchLine(miss_lines, first));
        }

        // Sampled mode on the single port with every technique.
        sim::SimConfig sampled = first;
        sampled.tech() = core::PortTechConfig::singlePortAllTechniques();
        sampled.label = std::string(kSinglePortAllLabel) + " sampled";
        sampled.sample.mode = sim::SampleParams::Mode::Periodic;
        sampled.sample.periodInsts =
            std::max<std::uint64_t>(20'000, trace->size() / 30);
        sampled.traceCache = state.cache.get();
        {
            SpanLog::Scope span(state.spans, "sim", "sampled_simulate");
            auto start = Clock::now();
            sim::SimResult result = sim::simulate(sampled);
            probe.sampledSeconds += seconds(start, Clock::now());
            probe.ffInsts += result.ffInsts;
            probe.sampledStream += trace->size();
            state.checker.op(
                state.checker.checkRun(sampled, result, trace->size()));
        }
    }
    if (!probe.dcache.completed)
        state.checker.op("D-cache drive made no progress");

    // Observability cost on the three quickest full-detail runs: the
    // same simulate with event tracing, then profiling, against off.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (!state.reference[i].sampled)
            order.push_back(i);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return state.referenceSeconds[a] < state.referenceSeconds[b];
    });
    order.resize(std::min<std::size_t>(order.size(), 3));
    for (unsigned round = 0; round < 2; ++round) {
        for (std::size_t i : order) {
            sim::SimConfig config = grid[i];
            config.traceCache = state.cache.get();
            auto timed = [&](const char *layer, const char *name,
                             const sim::SimConfig &run) {
                SpanLog::Scope span(state.spans, layer, name);
                auto start = Clock::now();
                sim::SimResult result = sim::simulate(run);
                double elapsed = seconds(start, Clock::now());
                state.checker.op(result.statsJson ==
                                         state.reference[i].statsJson
                                     ? ""
                                     : run.workloadName +
                                           ": observability changed stats");
                return elapsed;
            };
            probe.offSeconds += timed("cpu", "simulate", config);
            obs::CountingTraceSink sink;
            sim::SimConfig traced = config;
            traced.obs.traceSink = &sink;
            probe.tracedSeconds += timed("obs", "traced_simulate", traced);
            sim::SimConfig profiled = config;
            profiled.obs.profileTop = 10;
            probe.profiledSeconds +=
                timed("obs", "profiled_simulate", profiled);
        }
    }
    return probe;
}

// ---------------------------------------------------------------------
// Metrics.

/** Dotted-path number from a statsJson document (0 when absent). */
double
stat(const Json &doc, const std::string &path)
{
    const Json *node = &doc;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t dot = path.find('.', pos);
        std::string part = path.substr(
            pos, dot == std::string::npos ? std::string::npos : dot - pos);
        if (!node->isObject())
            return 0.0;
        node = node->find(part);
        if (!node)
            return 0.0;
        if (dot == std::string::npos)
            break;
        pos = dot + 1;
    }
    return node->isNumber() ? node->asNumber() : 0.0;
}

/** Sums of statsJson counters over every full-detail reference run. */
class StatTotals
{
  public:
    explicit StatTotals(const std::vector<sim::SimResult> &results)
    {
        for (const sim::SimResult &result : results)
            if (!result.sampled)
                docs_.push_back(Json::parse(result.statsJson, "statsJson"));
    }

    double
    sum(const std::string &path) const
    {
        double total = 0.0;
        for (const Json &doc : docs_)
            total += stat(doc, path);
        return total;
    }

    /** Mean of @p path's per-run means, weighted by @p weight_path. */
    double
    weighted(const std::string &path, const std::string &weight_path) const
    {
        double num = 0.0, den = 0.0;
        for (const Json &doc : docs_) {
            double w = stat(doc, weight_path);
            num += stat(doc, path) * w;
            den += w;
        }
        return den > 0.0 ? num / den : 0.0;
    }

    double
    ratio(const std::string &num, const std::string &den) const
    {
        double d = sum(den);
        return d > 0.0 ? sum(num) / d : 0.0;
    }

  private:
    std::vector<Json> docs_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string detail;
};

std::string
tailDetail(const std::vector<double> &samples)
{
    std::ostringstream out;
    out << "p" << kTailPct << " of " << samples.size() << " samples";
    return out.str();
}

/** The factor that scales this run's host timings to the reference
 *  host speed. */
double
hostScale(const DirectStats &direct)
{
    return HostProbe::scaleFor(mean(direct.probeUs));
}

std::vector<Metric>
endToEndMetrics(const RunState &state, const std::vector<double> &setup_s,
                const DirectStats &direct, const ServedStats &served)
{
    // Every host time below is scaled to the reference host speed.
    const double scale = hostScale(direct);
    std::vector<double> ipcs, single, dual;
    for (const sim::SimResult &result : state.reference) {
        ipcs.push_back(result.ipc);
        if (result.configTag == kSinglePortAllLabel)
            single.push_back(result.ipc);
        else if (result.configTag == kDualPortLabel)
            dual.push_back(result.ipc);
    }
    double efficiency =
        dual.empty() ? 0.0 : 100.0 * geomean(single) / geomean(dual);
    std::string calls = std::to_string(direct.callMs.size()) +
                        " simulate calls in " +
                        std::to_string(direct.passSeconds.size()) +
                        " passes";
    return {
        {"setup_s", median(setup_s) * scale, "s",
         "median of " + std::to_string(setup_s.size()) + " set-ups"},
        {"sim_minst_per_s", direct.insts / (direct.simSeconds * scale) / 1e6,
         "Minst/s", calls},
        {"sim_mcycles_per_s",
         direct.cycles / (direct.simSeconds * scale) / 1e6, "Mcycle/s",
         calls},
        {"run_ms_p50", median(direct.callMs) * scale, "ms", calls},
        {"run_ms_tail", percentile(direct.callMs, kTailPct) * scale, "ms",
         tailDetail(direct.callMs)},
        {"ipc_geomean", geomean(ipcs), "IPC",
         std::to_string(ipcs.size()) + " runs, simulated"},
        {"port_efficiency_pct", efficiency, "%",
         std::string(kSinglePortAllLabel) + " / " + kDualPortLabel +
             " geomean IPC; paper 91, unvalidated model"},
        {"sweep_wall_s", median(served.coldWallS) * scale, "s",
         "median of " + std::to_string(served.coldWallS.size()) +
             " cold passes"},
        {"cold_req_ms_p50", median(served.coldMs) * scale, "ms",
         std::to_string(served.coldMs.size()) + " requests"},
        {"cold_req_ms_tail", percentile(served.coldMs, kTailPct) * scale,
         "ms", tailDetail(served.coldMs)},
        {"warm_req_ms_p50", median(served.warmMs) * scale, "ms",
         std::to_string(served.warmMs.size()) + " requests"},
    };
}

std::vector<Metric>
perLayerMetrics(const RunState &state, const DirectStats &direct,
                const ServedStats &served, const ProbeStats &probe,
                double root_seconds)
{
    StatTotals t(state.reference);
    const std::string dc = "core.dcache_unit.";
    double kinst = t.sum("core.committed") / 1000.0;
    auto per_kinst = [&](const std::string &path) {
        return kinst > 0.0 ? t.sum(path) / kinst : 0.0;
    };
    double cycles = t.sum("core.rob_occupancy.samples");
    // a / (a + b) over the summed counters.
    auto share = [&](const std::string &a, const std::string &b) {
        double total = t.sum(a) + t.sum(b);
        return total > 0.0 ? t.sum(a) / total : 0.0;
    };

    std::vector<double> traced_pass, plain_pass;
    for (std::size_t p = 0; p < direct.passSeconds.size(); ++p)
        (direct.passTraced[p] ? traced_pass : plain_pass)
            .push_back(direct.passSeconds[p]);
    double per_cycle = served.cycles ? 1.0 / served.cycles : 0.0;

    std::vector<Metric> metrics = {
        {"host_probe_us", mean(direct.probeUs), "us",
         "HostProbe sort, mean of one per simulate call"},
        {"warm_req_ms_tail", percentile(served.warmMs, kTailPct), "ms",
         tailDetail(served.warmMs)},
        {"peak_rss_mb", peakRssMb(), "MB", "ru_maxrss of this process"},
        {"workload.build_ms", median(probe.buildMs), "ms",
         "WorkloadRegistry::build, median per program"},
        {"func.capture_ns_per_inst",
         probe.captureSeconds * 1e9 / probe.capturedInsts, "ns/inst",
         "Executor + CapturedTrace::capture"},
        {"func.trace_bytes_per_inst",
         static_cast<double>(probe.traceBytes) / probe.capturedInsts,
         "B/inst", "CapturedTrace::memoryBytes"},
        {"func.warm_index_ms", median(probe.warmIndexMs), "ms",
         "CapturedTrace::warmIndex, median per program"},
        {"cpu.ns_per_inst", direct.cpuSeconds * 1e9 / direct.tracedInsts,
         "ns/inst", "simulate minus warm acquire"},
        {"cpu.ns_per_cycle", direct.cpuSeconds * 1e9 / direct.tracedCycles,
         "ns/cycle", "simulate minus warm acquire"},
        {"cpu.rob_empty_frac",
         cycles > 0 ? t.sum("core.rob_empty_cycles") / cycles : 0.0,
         "ratio", "simulated"},
        {"cpu.rob_occupancy_mean",
         t.weighted("core.rob_occupancy.mean", "core.rob_occupancy.samples"),
         "entries", "simulated"},
        {"cpu.commit_blocked_frac",
         cycles > 0 ? t.sum("core.commit_blocked_cycles") / cycles : 0.0,
         "ratio", "simulated"},
        {"cpu.iq_full_stalls_per_kinst", per_kinst("core.iq.full_stalls"),
         "1/kinst", "simulated"},
        {"cpu.bpred_cond_accuracy",
         1.0 - t.ratio("core.fetch.bpred.dir_mispredicts",
                       "core.fetch.bpred.cond_lookups"),
         "ratio", "simulated"},
        {"core.dcache_ns_per_access",
         probe.dcache.seconds * 1e9 / probe.dcache.operations, "ns/access",
         "standalone DCacheUnit per machine"},
        {"core.port_utilization",
         share(dc + "dports.busy_cycles", dc + "dports.idle_cycles"),
         "ratio", "simulated"},
        {"core.port_rejections_per_kinst",
         per_kinst(dc + "dports.rejections"), "1/kinst", "simulated"},
        {"core.lb_hit_rate",
         t.ratio(dc + "line_buffers.hits", dc + "line_buffers.lookups"),
         "ratio", "simulated, runs with line buffers"},
        {"core.sb_stores_per_drain",
         t.ratio(dc + "store_buffer.inserts", dc + "store_buffer.drain_ops"),
         "ratio", "simulated, runs with a store buffer"},
        {"core.port_accesses_per_load",
         t.weighted(dc + "port_accesses_per_load", "core.committed_loads"),
         "ratio", "simulated"},
        {"core.sb_full_rejects_per_kinst",
         per_kinst(dc + "store_buffer.full_rejects"), "1/kinst",
         "simulated"},
        {"mem.l1d_ns_per_access", probe.l1.seconds * 1e9 / probe.l1.operations,
         "ns/access", "standalone mem::Cache"},
        {"mem.fetch_line_ns",
         probe.fetchLine.operations
             ? probe.fetchLine.seconds * 1e9 / probe.fetchLine.operations
             : 0.0,
         "ns/line", "MemHierarchy::fetchLine over L1 misses"},
        {"mem.l1d_miss_rate", share(dc + "l1d.misses", dc + "l1d.hits"),
         "ratio", "simulated"},
        {"mem.l2_miss_rate", share("memsys.l2.misses", "memsys.l2.hits"),
         "ratio", "simulated"},
        {"mem.mshr_full_rejects_per_kinst",
         per_kinst(dc + "l1d_mshrs.full_rejects"), "1/kinst", "simulated"},
        {"mem.load_latency_mean",
         t.weighted("core.load_latency.mean", "core.load_latency.samples"),
         "cycles", "simulated"},
        {"sim.acquire_hit_us", median(direct.acquireUs), "us",
         "TraceCache::acquire on a resident capture"},
        {"sim.ff_frac",
         static_cast<double>(probe.ffInsts) / probe.sampledStream, "ratio",
         "sampled runs, fast-forwarded share of the stream"},
        {"sim.sampled_ns_per_stream_inst",
         probe.sampledSeconds * 1e9 / probe.sampledStream, "ns/inst",
         "sampled runs"},
        {"serve.store_fetch_us", median(served.storeFetchUs), "us",
         "ResultStore::lookup"},
        {"serve.store_hit_frac",
         served.storeLookups ? static_cast<double>(served.storeHits) /
                                   served.storeLookups
                             : 0.0,
         "ratio", "lookups after the warm pass"},
        {"serve.source.sim", served.sources.count("sim")
                                 ? served.sources.at("sim") * per_cycle
                                 : 0.0,
         "count", "result records per cycle"},
        {"serve.source.store", served.sources.count("store")
                                   ? served.sources.at("store") * per_cycle
                                   : 0.0,
         "count", "result records per cycle"},
        {"serve.source.shared", served.sources.count("shared")
                                    ? served.sources.at("shared") * per_cycle
                                    : 0.0,
         "count", "result records per cycle"},
        {"serve.result_bytes",
         served.resultRecords
             ? static_cast<double>(served.resultBytes) / served.resultRecords
             : 0.0,
         "B", "mean result record body"},
        {"obs.trace_slowdown", probe.tracedSeconds / probe.offSeconds,
         "ratio", "CountingTraceSink armed vs off"},
        {"obs.profile_slowdown", probe.profiledSeconds / probe.offSeconds,
         "ratio", "profileTop=10 vs off"},
        {"trace_overhead_frac", median(traced_pass) / median(plain_pass) - 1.0,
         "ratio", "direct pass with spans vs without"},
    };
    std::map<std::string, double> self = state.spans.selfSecondsByLayer();
    for (const char *layer : {"workload", "func", "cpu", "core", "mem",
                              "sim", "serve", "obs"})
        metrics.push_back({std::string(layer) + ".self_frac",
                           self[layer] / root_seconds, "ratio",
                           "span self time / run"});
    return metrics;
}

Json
reproducibilityRecord(const RunState &state, double load_start)
{
    Json record = Json::object();
    record["workload"] = state.args.workload;
    record["seed"] = state.args.seed;
    record["held_out_seed"] = kHeldOutSeed;
    record["seconds"] = state.args.seconds;
    record["trace"] = state.args.trace;
    record["nproc"] = std::thread::hardware_concurrency();
    record["loadavg_start"] = load_start;
    record["loadavg_end"] = loadAverage();
    record["cpu_model"] = cpuModel();
    record["git_rev"] = state.args.gitRev;
    record["build_type"] = CPEBENCH_BUILD_TYPE;
    record["cxx_flags"] = CPEBENCH_CXX_FLAGS;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    record["optimized"] = true;
#else
    record["optimized"] = false;
    record["warning"] = "non-optimised build: timings are not comparable";
#endif
    record["modelled_caches"] = "empty at the start of every run";
    record["captures"] = "warmed in set-up for direct runs; served runs "
                         "execute live";
    record["tail_percentile"] = kTailPct;
    record["grid_runs"] =
        static_cast<std::uint64_t>(state.workload.grid.size());
    record["requests"] =
        static_cast<std::uint64_t>(state.workload.requests.size());
    return record;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    double load_start = loadAverage();
    auto process_start = Clock::now();

    try {
        Workload workload = makeWorkload(args.workload, args.seed, args.tiny);
        RunState state(args, std::move(workload));
        state.scratch =
            fs::path(args.outDir) / ("run-" + std::to_string(getpid()));
        fs::remove_all(state.scratch);
        fs::create_directories(state.scratch);
        // Relative, so it fits sun_path wherever the checkout lives.
        state.socketPath = (state.scratch / "s.sock").string();

        std::vector<double> setup_s;
        DirectStats direct;
        ServedStats served;
        ProbeStats probe;
        double root_seconds = 0.0;
        {
            SpanLog::Scope root(state.spans, "bench", "run");
            auto root_start = Clock::now();
            unsigned reps = args.tiny ? 1 : kSetupReps;
            for (unsigned rep = 0; rep < reps; ++rep)
                setup_s.push_back(setupOnce(state, rep));

            measure(state, direct, served, Clock::now());
            if (args.trace)
                probe = probePhase(state);
            root_seconds = seconds(root_start, Clock::now());
        }

        std::vector<Metric> metrics =
            args.trace ? perLayerMetrics(state, direct, served, probe,
                                         root_seconds)
                       : endToEndMetrics(state, setup_s, direct, served);

        std::string stem = args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
        if (args.trace &&
            !state.spans.writeJsonl(
                (fs::path(args.outDir) / ("spans-" + stem + ".jsonl"))
                    .string()))
            state.checker.op("could not write the span log");
        fs::remove_all(state.scratch);

        Json record = reproducibilityRecord(state, load_start);
        record["process_s"] = seconds(process_start, Clock::now());
        record["host_probe_us_mean"] = mean(direct.probeUs);
        record["host_probe_reference_us"] = HostProbe::kReferenceUs;
        record["host_probe_sensitivity"] = HostProbe::kSensitivity;
        record["host_scale"] = hostScale(direct);
        double error_frac =
            static_cast<double>(state.checker.failed()) /
            static_cast<double>(std::max<std::uint64_t>(
                1, state.checker.attempted()));
        record["error_frac"] = error_frac;
        Json failures = Json::array();
        for (const std::string &message : state.checker.messages())
            failures.push(message);
        record["failures"] = failures;

        Json detail = Json::object();
        Json result_metrics = Json::object();
        std::cout << "cpebench " << args.workload << " seed " << args.seed
                  << (args.trace ? " (traced)" : "") << "\n";
        for (const Metric &metric : metrics) {
            std::printf("  %-32s %14.6g %-9s %s\n", metric.name.c_str(),
                        metric.value, metric.unit.c_str(),
                        metric.detail.c_str());
            Json value = Json::object();
            value["value"] = metric.value;
            value["unit"] = metric.unit;
            result_metrics[metric.name] = value;
            Json full = value;
            full["detail"] = metric.detail;
            detail[metric.name] = full;
        }
        std::printf("  %-32s %14.6g %-9s %llu of %llu operations failed\n",
                    "error_frac", error_frac, "ratio",
                    static_cast<unsigned long long>(state.checker.failed()),
                    static_cast<unsigned long long>(
                        state.checker.attempted()));
        for (const std::string &message : state.checker.messages())
            std::cout << "  FAILED: " << message << "\n";
        std::cout << "record " << record.dump() << "\n";

        Json file = Json::object();
        file["record"] = record;
        file["metrics"] = detail;
        Json samples = Json::object();
        auto series = [](const std::vector<double> &values) {
            Json array = Json::array();
            for (double v : values)
                array.push(v);
            return array;
        };
        samples["setup_s"] = series(setup_s);
        samples["direct_pass_s"] = series(direct.passSeconds);
        samples["simulate_ms"] = series(direct.callMs);
        samples["host_probe_us"] = series(direct.probeUs);
        samples["cold_pass_s"] = series(served.coldWallS);
        samples["cold_req_ms"] = series(served.coldMs);
        samples["warm_req_ms"] = series(served.warmMs);
        file["samples"] = samples;
        std::ofstream(fs::path(args.outDir) / ("result-" + stem + ".json"))
            << file.dump(2) << "\n";

        Json result = Json::object();
        result["correct"] = state.checker.failed() == 0;
        result["attempted"] = state.checker.attempted();
        result["failed"] = state.checker.failed();
        result["metrics"] = result_metrics;
        std::cout << result.dump() << std::endl;
        return 0;
    } catch (const std::exception &error) {
        std::cerr << "cpebench: " << error.what() << "\n";
        return 1;
    }
}
