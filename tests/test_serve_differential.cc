/**
 * @file
 * The served-vs-direct differential: a grid served by cpe_serve — cold
 * store, warm store, concurrent duplicate clients, or restarted over a
 * half-populated store left by a killed server — must be byte-identical
 * to a direct SweepRunner run of the same configs.  The server and its
 * result store are pure memoization: they may change *when* a run
 * executes (or whether it executes at all), never *what* it computes.
 */

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "exp/registry.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "serve/server.hh"
#include "sim/config_file.hh"
#include "sim/report.hh"
#include "sim/run_journal.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace cpe {
namespace {

/** The reduced F5 grid both sides run: every variant, one workload. */
std::vector<sim::SimConfig>
f5Configs()
{
    const exp::Experiment &f5 =
        exp::ExperimentRegistry::instance().get("F5");
    return exp::suiteConfigs(f5.variants(), {"crc"}, {});
}

/** The direct (serverless) grid, simulated once per test binary. */
const std::string &
directGolden()
{
    static const std::string golden = []() {
        VerboseScope quiet(false);
        return sim::SweepRunner(1).runGrid(f5Configs()).toJson().dump(2);
    }();
    return golden;
}

/** A scratch store directory + socket path, removed on scope exit. */
struct ScratchDir
{
    std::filesystem::path dir;

    explicit ScratchDir(const std::string &name)
        : dir(std::filesystem::temp_directory_path() /
              (name + "." + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    std::string store() const { return (dir / "store").string(); }
    std::string socket() const { return (dir / "sock").string(); }
};

serve::SweepRequest
f5Request()
{
    serve::SweepRequest request;
    request.experiment = "F5";
    request.workloads = {"crc"};
    return request;
}

struct SweepCapture
{
    sim::ResultGrid grid{"IPC"};
    serve::RequestTally tally;
    bool done = false;
};

double
number(const Json &doc, const char *key)
{
    const Json *value = doc.find(key);
    return value && value->isNumber() ? value->asNumber() : 0.0;
}

/** Run one sweep and rebuild the grid from its result records. */
SweepCapture
servedSweep(const std::string &socket_path,
            const serve::SweepRequest &request)
{
    SweepCapture capture;
    serve::Client client(socket_path);
    Json terminal = client.sweep(request, [&](const Json &record) {
        const Json *type = record.find("t");
        if (!type || !type->isString() || type->asString() != "result")
            return;
        capture.grid.add(
            sim::resultFromJson(record.at("result", "result record")));
    });
    const Json *type = terminal.find("t");
    capture.done =
        type && type->isString() && type->asString() == "done";
    if (capture.done) {
        const Json &tally = terminal.at("tally", "done record");
        capture.tally.runs =
            static_cast<std::uint64_t>(number(tally, "runs"));
        capture.tally.storeHits =
            static_cast<std::uint64_t>(number(tally, "store_hits"));
        capture.tally.shared =
            static_cast<std::uint64_t>(number(tally, "shared"));
        capture.tally.simulated =
            static_cast<std::uint64_t>(number(tally, "simulated"));
        capture.tally.errors =
            static_cast<std::uint64_t>(number(tally, "errors"));
        capture.tally.cancelled =
            static_cast<std::uint64_t>(number(tally, "cancelled"));
    }
    return capture;
}

TEST(ServeDifferential, ColdThenWarmServedGridsMatchDirect)
{
    VerboseScope quiet(false);
    const std::size_t runs = f5Configs().size();
    ScratchDir scratch("cpe_serve_diff_coldwarm");
    serve::ResultStore store(scratch.store());
    serve::ServerOptions options;
    options.socketPath = scratch.socket();
    options.jobs = 2;
    serve::Server server(options, &store);
    server.start();

    // Cold: every run simulates, and the served grid is byte-identical
    // to the direct one.
    SweepCapture cold = servedSweep(scratch.socket(), f5Request());
    ASSERT_TRUE(cold.done);
    EXPECT_EQ(cold.tally.runs, runs);
    EXPECT_EQ(cold.tally.simulated, runs);
    EXPECT_EQ(cold.tally.storeHits, 0u);
    EXPECT_EQ(cold.tally.errors, 0u);
    EXPECT_EQ(cold.grid.toJson().dump(2), directGolden());

    // Warm: zero simulations, and still byte-identical.
    SweepCapture warm = servedSweep(scratch.socket(), f5Request());
    ASSERT_TRUE(warm.done);
    EXPECT_EQ(warm.tally.storeHits, runs);
    EXPECT_EQ(warm.tally.simulated, 0u);
    EXPECT_EQ(warm.grid.toJson().dump(2), directGolden());

    server.stop();
    EXPECT_EQ(store.entries(), runs);
}

TEST(ServeDifferential, ConcurrentDuplicateClientsSimulateEachRunOnce)
{
    VerboseScope quiet(false);
    const std::size_t runs = f5Configs().size();
    ScratchDir scratch("cpe_serve_diff_concurrent");
    serve::ResultStore store(scratch.store());
    serve::ServerOptions options;
    options.socketPath = scratch.socket();
    options.jobs = 2;
    serve::Server server(options, &store);
    server.start();

    // Two identical requests race against a cold store: single-flight
    // dedup must keep total executions at exactly one per config, and
    // both clients must still receive the full byte-identical grid.
    SweepCapture captures[2];
    std::thread clients[2];
    for (int i = 0; i < 2; ++i)
        clients[i] = std::thread([&, i]() {
            captures[i] = servedSweep(scratch.socket(), f5Request());
        });
    for (auto &thread : clients)
        thread.join();

    for (const SweepCapture &capture : captures) {
        ASSERT_TRUE(capture.done);
        EXPECT_EQ(capture.tally.runs, runs);
        EXPECT_EQ(capture.tally.errors, 0u);
        EXPECT_EQ(capture.grid.toJson().dump(2), directGolden());
    }
    serve::Server::Stats stats = server.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.simulated, runs)
        << "duplicate concurrent requests must not re-simulate";
    EXPECT_EQ(stats.storeHits + stats.shared, runs);
    EXPECT_EQ(store.stats().computes, runs);

    server.stop();
}

TEST(ServeDifferential, KillAndRestartMidGridStitchesByteIdenticalGrid)
{
    VerboseScope quiet(false);
    std::vector<sim::SimConfig> configs = f5Configs();
    const std::size_t runs = configs.size();
    ASSERT_GE(runs, 4u);
    const std::size_t completed = 3;
    ScratchDir scratch("cpe_serve_diff_restart");

    // Model a server killed mid-grid: K complete entries, one torn
    // entry a crash tore mid-write (impossible via the tmp+rename
    // discipline, but disks and operators do worse), and an orphaned
    // tmp file from an interrupted publish.
    {
        serve::ResultStore store(scratch.store());
        for (std::size_t i = 0; i < completed; ++i) {
            std::string key = serve::ResultStore::keyFor(
                sim::toMachineFile(configs[i]), "F5");
            store.insert(key, sim::simulate(configs[i]));
        }
        std::string torn_key = serve::ResultStore::keyFor(
            sim::toMachineFile(configs[completed]), "F5");
        std::ofstream torn(store.entryPath(torn_key),
                           std::ios::binary | std::ios::trunc);
        torn << "{\"t\":\"entry\",\"k\":\"" << torn_key << "\",\"ver";
    }
    {
        std::ofstream orphan(std::filesystem::path(scratch.store()) /
                             "deadbeef.json.tmp.12345");
        orphan << "half a";
    }

    // Restart over the same directory: the orphan is swept, the K
    // complete entries hit, the torn one re-executes, and the stitched
    // grid is byte-identical to the direct run.
    serve::ResultStore store(scratch.store());
    serve::ServerOptions options;
    options.socketPath = scratch.socket();
    options.jobs = 1;
    serve::Server server(options, &store);
    server.start();

    SweepCapture capture = servedSweep(scratch.socket(), f5Request());
    ASSERT_TRUE(capture.done);
    EXPECT_EQ(capture.tally.runs, runs);
    EXPECT_EQ(capture.tally.storeHits, completed);
    EXPECT_EQ(capture.tally.simulated, runs - completed)
        << "exactly N-K re-executions after the crash";
    EXPECT_EQ(capture.tally.errors, 0u);
    EXPECT_EQ(capture.grid.toJson().dump(2), directGolden());

    server.stop();
    EXPECT_EQ(store.entries(), runs) << "the torn entry was replaced";
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(scratch.store()) /
        "deadbeef.json.tmp.12345"))
        << "orphaned tmp files are swept on restart";
}

TEST(ServeDifferential, ClientDisconnectMidStreamLeavesServerHealthy)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_serve_diff_disconnect");
    serve::ResultStore store(scratch.store());
    serve::ServerOptions options;
    options.socketPath = scratch.socket();
    options.jobs = 1;
    serve::Server server(options, &store);
    server.start();

    {
        // Fire a sweep and vanish without reading a byte: the server
        // must notice on a response write, cancel what it can, and
        // keep serving other clients.
        serve::Client impatient(scratch.socket());
        Json doc = f5Request().toJson();
        // Send the request line directly (sweep() would block reading).
        impatient.roundTripLine(doc.dump()); // reads just "accepted"
    }

    serve::Client fresh(scratch.socket());
    EXPECT_TRUE(fresh.ping()) << "server alive after a vanished client";
    SweepCapture capture = servedSweep(scratch.socket(), f5Request());
    ASSERT_TRUE(capture.done);
    EXPECT_EQ(capture.tally.errors, 0u);
    EXPECT_EQ(capture.grid.toJson().dump(2), directGolden())
        << "a half-abandoned request never corrupts later ones";

    server.stop();
}

TEST(ServeDifferential, CancelFlagShortCircuitsQueuedRuns)
{
    VerboseScope quiet(false);
    std::atomic<bool> cancel{false};
    sim::SweepRunner runner(1);
    runner.setCancelFlag(&cancel);

    sim::SimConfig config = sim::SimConfig::defaults();
    config.workloadName = "crc";

    // Not cancelled: the run executes normally.
    sim::RunOutcome live = runner.runOne(config);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live.attempts, 1u);

    // Cancelled: no simulate() call, a dedicated non-retryable kind.
    cancel.store(true);
    sim::RunOutcome dead = runner.runOne(config);
    EXPECT_FALSE(dead.ok());
    EXPECT_EQ(dead.errorKind, "cancelled");
    EXPECT_EQ(dead.attempts, 0u) << "cancellation precedes execution";
    EXPECT_FALSE(
        sim::SweepRunner::defaultRetryPolicy().retryable("cancelled"))
        << "a cancelled run must never be retried";
}

} // namespace
} // namespace cpe
