/**
 * @file
 * Service telemetry (src/obs/metrics.hh): histogram bucket selection
 * and interpolated percentiles, concurrent-increment exactness (the
 * TSan lane's target), snapshot/Prometheus rendering, the structured
 * service log, and — against a live in-process server — the two
 * contracts the instrumentation must honor: disarmed, the served grid
 * is byte-identical to a direct run; armed, the registry's counters
 * exactly reconcile with the per-run "source" tallies of the stream.
 */

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "exp/registry.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "sim/run_journal.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace cpe {
namespace {

/** Restore the registry's disarmed default no matter how a test exits
 *  — later tests in this binary depend on the disarmed state. */
struct ArmedScope
{
    explicit ArmedScope(bool armed)
    {
        if (armed)
            obs::MetricsRegistry::arm();
        else
            obs::MetricsRegistry::disarm();
    }
    ~ArmedScope() { obs::MetricsRegistry::disarm(); }
};

TEST(Metrics, HistogramBucketSelectionAndUnits)
{
    obs::MetricsRegistry registry;
    obs::Histogram *h =
        registry.histogram("t.latency_us", {100.0, 1000.0, 10000.0});
    ASSERT_EQ(h->bounds().size(), 3u);

    h->observe(50.0);    // <= 100        -> bucket 0
    h->observe(100.0);   // == bound      -> bucket 0 (le semantics)
    h->observe(101.0);   // first above   -> bucket 1
    h->observe(1000.0);  //               -> bucket 1
    h->observe(9999.0);  //               -> bucket 2
    h->observe(50000.0); // above last    -> overflow bucket

    EXPECT_EQ(h->bucketCount(0), 2u);
    EXPECT_EQ(h->bucketCount(1), 2u);
    EXPECT_EQ(h->bucketCount(2), 1u);
    EXPECT_EQ(h->bucketCount(3), 1u) << "overflow bucket";
    EXPECT_EQ(h->count(), 6u);
    EXPECT_DOUBLE_EQ(h->sum(), 50.0 + 100.0 + 101.0 + 1000.0 + 9999.0 +
                                   50000.0);
}

TEST(Metrics, HistogramQuantilesInterpolateAndClamp)
{
    obs::MetricsRegistry registry;
    obs::Histogram *h = registry.histogram("t.q", {100.0, 200.0});

    EXPECT_EQ(h->quantile(0.5), 0.0) << "empty histogram";

    // 10 observations in (0,100], none above: the median lands mid
    // bucket, and every quantile stays within the first bound.
    for (int i = 0; i < 10; ++i)
        h->observe(42.0);
    EXPECT_GT(h->quantile(0.5), 0.0);
    EXPECT_LE(h->quantile(0.5), 100.0);
    EXPECT_LE(h->quantile(0.99), 100.0);

    // Pile everything above the last bound: quantiles clamp to it
    // rather than inventing values past the histogram's range.
    obs::Histogram *over = registry.histogram("t.q_over", {100.0, 200.0});
    for (int i = 0; i < 10; ++i)
        over->observe(5000.0);
    EXPECT_DOUBLE_EQ(over->quantile(0.5), 200.0);
    EXPECT_DOUBLE_EQ(over->quantile(0.99), 200.0);
}

TEST(Metrics, RegistrationIsIdempotentAndZeroKeepsPointers)
{
    obs::MetricsRegistry registry;
    obs::Counter *a = registry.counter("t.count", "help");
    obs::Counter *b = registry.counter("t.count");
    EXPECT_EQ(a, b) << "register-or-fetch must return stable pointers";
    a->inc(3);
    EXPECT_EQ(b->value(), 3u);

    obs::Gauge *g = registry.gauge("t.gauge");
    g->set(7);
    g->add(-2);
    EXPECT_EQ(g->value(), 5);

    registry.zeroAll();
    EXPECT_EQ(a->value(), 0u);
    EXPECT_EQ(g->value(), 0);
    EXPECT_EQ(registry.counter("t.count"), a) << "zeroing never deletes";
}

TEST(Metrics, ZeroPrefixResetsOnlyMatchingNames)
{
    obs::MetricsRegistry registry;
    obs::Counter *serve = registry.counter("serve.requests");
    obs::Counter *store = registry.counter("store.hits");
    serve->inc(5);
    store->inc(5);
    registry.zeroPrefix("serve.");
    EXPECT_EQ(serve->value(), 0u);
    EXPECT_EQ(store->value(), 5u) << "other prefixes untouched";
}

TEST(Metrics, ConcurrentIncrementsAreExact)
{
    // The TSan lane's target: many threads hammering one counter, one
    // gauge, and one histogram must lose no update — and the histogram
    // invariant sum(buckets) == count() must hold at rest.
    obs::MetricsRegistry registry;
    obs::Counter *counter = registry.counter("t.concurrent");
    obs::Gauge *gauge = registry.gauge("t.concurrent_gauge");
    obs::Histogram *h =
        registry.histogram("t.concurrent_hist", {10.0, 100.0, 1000.0});

    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t]() {
            for (int i = 0; i < kPerThread; ++i) {
                counter->inc();
                gauge->add(1);
                gauge->add(-1);
                h->observe(static_cast<double>((t * kPerThread + i) %
                                               2000));
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    const std::uint64_t total =
        static_cast<std::uint64_t>(kThreads) * kPerThread;
    EXPECT_EQ(counter->value(), total);
    EXPECT_EQ(gauge->value(), 0);
    EXPECT_EQ(h->count(), total);
    std::uint64_t in_buckets = 0;
    for (std::size_t i = 0; i <= h->bounds().size(); ++i)
        in_buckets += h->bucketCount(i);
    EXPECT_EQ(in_buckets, total);
    EXPECT_GT(h->sum(), 0.0);
}

TEST(Metrics, SnapshotJsonIsSortedAndCarriesThePinnedSchema)
{
    obs::MetricsRegistry registry;
    registry.counter("z.last")->inc(1);
    registry.counter("a.first")->inc(2);
    registry.gauge("m.middle")->set(-3);
    obs::Histogram *h = registry.histogram("h.lat", {100.0});
    h->observe(50.0);
    h->observe(500.0);

    Json snapshot = registry.snapshotJson();
    const Json &counters = snapshot.at("counters", "snapshot");
    ASSERT_EQ(counters.members().size(), 2u);
    EXPECT_EQ(counters.members()[0].first, "a.first") << "sorted";
    EXPECT_EQ(counters.members()[1].first, "z.last");
    EXPECT_EQ(counters.members()[0].second.asNumber(), 2.0);

    EXPECT_EQ(snapshot.at("gauges", "snapshot")
                  .at("m.middle", "gauge")
                  .asNumber(),
              -3.0);

    const Json &hist =
        snapshot.at("histograms", "snapshot").at("h.lat", "histogram");
    EXPECT_EQ(hist.at("count", "hist").asNumber(), 2.0);
    EXPECT_EQ(hist.at("sum", "hist").asNumber(), 550.0);
    EXPECT_TRUE(hist.find("p50"));
    EXPECT_TRUE(hist.find("p90"));
    EXPECT_TRUE(hist.find("p99"));
    const Json &buckets = hist.at("buckets", "hist");
    ASSERT_EQ(buckets.items().size(), 2u);
    EXPECT_EQ(buckets.items()[0].at("le", "bucket").asNumber(),
              100.0);
    EXPECT_EQ(buckets.items()[0].at("n", "bucket").asNumber(), 1.0);
    EXPECT_EQ(buckets.items()[1].at("le", "bucket").asString(),
              "+inf");
    EXPECT_EQ(buckets.items()[1].at("n", "bucket").asNumber(), 1.0);
}

TEST(Metrics, PrometheusTextMatchesTheExpositionFormat)
{
    obs::MetricsRegistry registry;
    registry.counter("serve.requests", "requests served")->inc(4);
    registry.gauge("pool.queue_depth")->set(2);
    obs::Histogram *h =
        registry.histogram("serve.request_latency_us.sweep", {100.0});
    h->observe(50.0);
    h->observe(500.0);

    const std::string text = registry.prometheusText();
    EXPECT_NE(text.find("# TYPE cpe_serve_requests counter"),
              std::string::npos);
    EXPECT_NE(text.find("# HELP cpe_serve_requests requests served"),
              std::string::npos);
    EXPECT_NE(text.find("cpe_serve_requests 4"), std::string::npos);
    EXPECT_NE(text.find("# TYPE cpe_pool_queue_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("cpe_pool_queue_depth 2"), std::string::npos);
    // Histogram buckets are cumulative and end at +Inf == _count.
    EXPECT_NE(
        text.find(
            "cpe_serve_request_latency_us_sweep_bucket{le=\"100\"} 1"),
        std::string::npos);
    EXPECT_NE(
        text.find(
            "cpe_serve_request_latency_us_sweep_bucket{le=\"+Inf\"} 2"),
        std::string::npos);
    EXPECT_NE(text.find("cpe_serve_request_latency_us_sweep_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("cpe_serve_request_latency_us_sweep_sum 550"),
              std::string::npos);
}

TEST(Metrics, ScopedTimerIsInertWhileDisarmed)
{
    ArmedScope disarmed(false);
    obs::MetricsRegistry registry;
    obs::Histogram *h = registry.histogram("t.timer", {100.0});
    {
        obs::ScopedTimerUs timer(h);
        EXPECT_EQ(timer.elapsedUs(), 0.0) << "no clock while disarmed";
    }
    EXPECT_EQ(h->count(), 0u) << "no observation while disarmed";

    ArmedScope armed(true);
    {
        obs::ScopedTimerUs timer(h);
    }
    EXPECT_EQ(h->count(), 1u) << "armed timers observe on destruction";
}

TEST(Metrics, ServiceLogWritesLeveledRidCorrelatedSpans)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("cpe_metrics_log." + std::to_string(::getpid()) + ".jsonl");
    std::filesystem::remove(path);

    obs::ServiceLog &log = obs::ServiceLog::instance();
    log.open(path.string(), obs::LogLevel::Info);
    EXPECT_TRUE(obs::ServiceLog::armed());
    EXPECT_FALSE(log.enabled(obs::LogLevel::Debug)) << "below min level";

    bool debug_fields_rendered = false;
    log.write(obs::LogLevel::Debug, "invisible", "r-9",
              [&](Json &) { debug_fields_rendered = true; });
    EXPECT_FALSE(debug_fields_rendered)
        << "field builders must not run for suppressed records";

    log.write(obs::LogLevel::Info, "request.accept", "r-1",
              [](Json &doc) { doc["runs"] = 7.0; });
    {
        obs::LogSpan span("store_fetch", "r-1",
                          [](Json &doc) { doc["key"] = "k"; });
        span.note("source", Json("sim"));
    }
    log.write(obs::LogLevel::Error, "request.fail");
    const std::uint64_t lines = log.lines();
    log.close();
    EXPECT_FALSE(obs::ServiceLog::armed());

    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::vector<Json> records;
    std::string line;
    while (std::getline(in, line))
        records.push_back(Json::parse(line, "service log"));
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(lines, 4u);

    EXPECT_EQ(records[0].at("ev", "log").asString(), "request.accept");
    EXPECT_EQ(records[0].at("lvl", "log").asString(), "info");
    EXPECT_EQ(records[0].at("rid", "log").asString(), "r-1");
    EXPECT_EQ(records[0].at("runs", "log").asNumber(), 7.0);
    EXPECT_TRUE(records[0].find("ts_us"));

    EXPECT_EQ(records[1].at("ev", "log").asString(),
              "store_fetch.begin");
    EXPECT_EQ(records[1].at("key", "log").asString(), "k");
    EXPECT_EQ(records[2].at("ev", "log").asString(), "store_fetch.end");
    EXPECT_EQ(records[2].at("rid", "log").asString(), "r-1");
    EXPECT_EQ(records[2].at("source", "log").asString(), "sim");
    EXPECT_TRUE(records[2].find("dur_us"));

    EXPECT_EQ(records[3].at("lvl", "log").asString(), "error");
    EXPECT_FALSE(records[3].find("rid")) << "empty rid omits the member";

    std::filesystem::remove(path);
}

TEST(Metrics, LogLevelParsingRoundTrips)
{
    EXPECT_EQ(obs::parseLogLevel("debug"), obs::LogLevel::Debug);
    EXPECT_EQ(obs::parseLogLevel("info"), obs::LogLevel::Info);
    EXPECT_EQ(obs::parseLogLevel("warn"), obs::LogLevel::Warn);
    EXPECT_EQ(obs::parseLogLevel("error"), obs::LogLevel::Error);
    EXPECT_THROW(obs::parseLogLevel("loud"), ConfigError);
    EXPECT_STREQ(obs::logLevelName(obs::LogLevel::Warn), "warn");
}

TEST(Metrics, VersionSummaryNamesEveryPinnedSchema)
{
    const std::string summary = serve::versionSummary();
    EXPECT_NE(summary.find("simulator "), std::string::npos);
    EXPECT_NE(summary.find("cpet trace "), std::string::npos);
    EXPECT_NE(summary.find("store schema "), std::string::npos);
    EXPECT_NE(summary.find(sim::simulatorVersion()), std::string::npos);
    // The store schema key must fold in the simulator version: a
    // simulator change invalidates every cached result.
    EXPECT_NE(summary.find(std::string("sim-") + sim::simulatorVersion()),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Served-grid contracts, borrowed from test_serve_differential.cc.

std::vector<sim::SimConfig>
f5Configs()
{
    const exp::Experiment &f5 =
        exp::ExperimentRegistry::instance().get("F5");
    return exp::suiteConfigs(f5.variants(), {"crc"}, {});
}

const std::string &
directGolden()
{
    static const std::string golden = []() {
        VerboseScope quiet(false);
        return sim::SweepRunner(1).runGrid(f5Configs()).toJson().dump(2);
    }();
    return golden;
}

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

/** Per-run source tallies rebuilt from the response stream itself. */
struct SourceTally
{
    std::map<std::string, std::uint64_t> bySource;
    std::uint64_t insertFailures = 0;
    std::string grid;
    bool done = false;
};

SourceTally
servedSweepSources(const std::string &socket_path)
{
    SourceTally tally;
    sim::ResultGrid grid("IPC");
    serve::Client client(socket_path);
    Json terminal =
        client.sweep(f5Request(), [&](const Json &record) {
            const Json *type = record.find("t");
            if (!type || !type->isString() ||
                type->asString() != "result")
                return;
            ++tally.bySource[record.at("source", "result").asString()];
            grid.add(sim::resultFromJson(
                record.at("result", "result record")));
        });
    const Json *type = terminal.find("t");
    tally.done = type && type->isString() && type->asString() == "done";
    if (tally.done) {
        const Json &done_tally = terminal.at("tally", "done record");
        const Json *failures = done_tally.find("insert_failures");
        if (failures && failures->isNumber())
            tally.insertFailures =
                static_cast<std::uint64_t>(failures->asNumber());
    }
    tally.grid = grid.toJson().dump(2);
    return tally;
}

std::uint64_t
serveCounter(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name)->value();
}

/** The request timer observes ~0.3 ms AFTER the client reads "done"
 *  (the server's epilogue runs after the terminal record is sent);
 *  wait out that race with a bounded poll. */
void
awaitHistogramCount(const obs::Histogram *histogram, std::uint64_t want)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (histogram->count() < want &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(MetricsServe, DisarmedServedGridIsByteIdenticalToDirect)
{
    VerboseScope quiet(false);
    ArmedScope disarmed(false);
    const std::size_t runs = f5Configs().size();
    ScratchDir scratch("cpe_metrics_disarmed");
    serve::ResultStore store(scratch.store());
    serve::ServerOptions options;
    options.socketPath = scratch.socket();
    options.jobs = 2;
    serve::Server server(options, &store);
    server.start();

    SourceTally cold = servedSweepSources(scratch.socket());
    ASSERT_TRUE(cold.done);
    EXPECT_EQ(cold.grid, directGolden())
        << "disarmed instrumentation must not perturb results";
    SourceTally warm = servedSweepSources(scratch.socket());
    ASSERT_TRUE(warm.done);
    EXPECT_EQ(warm.grid, directGolden());

    // Counters count even while disarmed (only clocks and logging are
    // gated) — the compat Stats view reads them.
    serve::Server::Stats stats = server.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.runs, 2 * runs);
    EXPECT_EQ(stats.simulated, cold.bySource["sim"]);
    EXPECT_EQ(stats.storeHits, warm.bySource["store"]);
    EXPECT_EQ(stats.insertFailures, 0u);

    // Disarmed means no clock reads: the latency histograms stay empty.
    obs::Histogram *latency =
        obs::MetricsRegistry::instance().histogram(
            "serve.request_latency_us.sweep",
            obs::MetricsRegistry::latencyBucketsUs());
    EXPECT_EQ(latency->count(), 0u);

    server.stop();
}

TEST(MetricsServe, ArmedCountersReconcileWithPerRunSourceTallies)
{
    VerboseScope quiet(false);
    ArmedScope armed(true);
    const std::size_t runs = f5Configs().size();
    ScratchDir scratch("cpe_metrics_armed");
    serve::ResultStore store(scratch.store());
    serve::ServerOptions options;
    options.socketPath = scratch.socket();
    options.jobs = 2;
    serve::Server server(options, &store);
    server.start(); // zeroes the "serve." prefix: exact session counts

    // Cold pass: every run simulates.
    SourceTally cold = servedSweepSources(scratch.socket());
    ASSERT_TRUE(cold.done);
    EXPECT_EQ(cold.grid, directGolden())
        << "armed instrumentation must not perturb results either";
    EXPECT_EQ(cold.bySource["sim"], runs);
    EXPECT_EQ(serveCounter("serve.simulated"), cold.bySource["sim"]);
    EXPECT_EQ(serveCounter("serve.store_hits"), 0u);

    // Warm pass: zero simulations, every run a store hit.
    SourceTally warm = servedSweepSources(scratch.socket());
    ASSERT_TRUE(warm.done);
    EXPECT_EQ(warm.grid, directGolden());
    EXPECT_EQ(warm.bySource["store"], runs);
    EXPECT_EQ(serveCounter("serve.simulated"),
              cold.bySource["sim"] + warm.bySource["sim"]);
    EXPECT_EQ(serveCounter("serve.store_hits"),
              cold.bySource["store"] + warm.bySource["store"]);
    EXPECT_EQ(serveCounter("serve.runs"), 2 * runs);
    EXPECT_EQ(serveCounter("serve.requests"), 2u);
    EXPECT_EQ(serveCounter("serve.errors"), 0u);

    // Armed request handling times every sweep.
    obs::Histogram *latency =
        obs::MetricsRegistry::instance().histogram(
            "serve.request_latency_us.sweep",
            obs::MetricsRegistry::latencyBucketsUs());
    awaitHistogramCount(latency, 2);
    EXPECT_EQ(latency->count(), 2u);
    EXPECT_GT(latency->sum(), 0.0);

    // The metrics protocol reply carries the same snapshot.
    serve::Client client(scratch.socket());
    Json reply = client.metrics();
    EXPECT_EQ(reply.at("t", "metrics").asString(), "metrics");
    const Json &counters = reply.at("metrics", "metrics reply")
                               .at("counters", "snapshot");
    EXPECT_EQ(counters.at("serve.simulated", "counters").asNumber(),
              static_cast<double>(runs));
    EXPECT_EQ(counters.at("serve.store_hits", "counters").asNumber(),
              static_cast<double>(runs));
    EXPECT_TRUE(reply.find("uptime_ms"));
    EXPECT_TRUE(reply.find("chaos"));

    server.stop();
}

TEST(MetricsServe, InsertFailuresSurfaceInDoneRecordAndCounters)
{
    VerboseScope quiet(false);
    ArmedScope armed(true);
    const std::size_t runs = f5Configs().size();
    ScratchDir scratch("cpe_metrics_chaos");
    serve::ResultStore store(scratch.store());
    serve::ServerOptions options;
    options.socketPath = scratch.socket();
    options.jobs = 1;
    serve::Server server(options, &store);
    server.start();

    // Every store publish fails: runs still succeed from the live
    // simulation, but none is durably cached — previously silent, now
    // a counter, a done-record member, and a chaos stat that must all
    // agree.
    util::ChaosSpec spec;
    spec.seed = 1;
    spec.rate = 1.0;
    spec.points = "serve.store_write";
    util::FaultInjector::instance().arm(spec);

    SourceTally tally = servedSweepSources(scratch.socket());
    util::FaultInjector::instance().disarm();
    ASSERT_TRUE(tally.done);
    EXPECT_EQ(tally.grid, directGolden())
        << "a failed cache insert never corrupts the served results";
    EXPECT_EQ(tally.bySource["sim"], runs);
    EXPECT_EQ(tally.insertFailures, runs)
        << "the done record reports every non-durable result";
    EXPECT_EQ(serveCounter("serve.insert_failures"), runs);
    EXPECT_EQ(server.stats().insertFailures, runs);

    // The injector's own accounting reconciles with what the server
    // surfaces through metricsJson()'s "chaos" member.
    const auto stats = util::FaultInjector::instance().stats();
    const auto point = stats.find("serve.store_write");
    ASSERT_NE(point, stats.end());
    EXPECT_EQ(point->second.fired, runs);
    Json metrics = server.metricsJson();
    const Json &chaos = metrics.at("chaos", "metricsJson");
    EXPECT_EQ(chaos.at("serve.store_write", "chaos")
                  .at("fired", "point")
                  .asNumber(),
              static_cast<double>(point->second.fired));
    EXPECT_EQ(chaos.at("serve.store_write", "chaos")
                  .at("evaluated", "point")
                  .asNumber(),
              static_cast<double>(point->second.evaluated));

    server.stop();
    EXPECT_EQ(store.entries(), 0u) << "nothing was durably cached";
}

} // namespace
} // namespace cpe
