#include "serve/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>

#include "exp/registry.hh"
#include "obs/metrics.hh"
#include "sim/config_file.hh"
#include "sim/sweep_runner.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/registry.hh"

namespace cpe::serve {

namespace {

/** Poll granularity of the accept/read loops: how quickly a stop
 *  request is noticed without busy-waiting. */
constexpr int kPollMs = 100;

/**
 * Write one record line to @p fd.  Throws IoError on any failure —
 * including the "serve.response_write" chaos seam — so the sweep loop
 * treats an injected write fault exactly like a vanished client.
 */
void
sendLine(int fd, const Json &record)
{
    if (CPE_FAULT_POINT("serve.response_write"))
        throw IoError("chaos: injected fault at serve.response_write");
    std::string line = record.dump();
    line.push_back('\n');
    const char *data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
        // MSG_NOSIGNAL: a disconnected client must surface as EPIPE,
        // not kill the server with SIGPIPE.
        ssize_t wrote = ::send(fd, data, left, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            throw IoError(std::string("response write failed: ") +
                          std::strerror(errno));
        }
        data += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
}

/** Best-effort variant for error paths where the peer may be gone. */
void
trySendLine(int fd, const Json &record)
{
    try {
        sendLine(fd, record);
    } catch (const SimError &) {
        // Nothing to do: the connection is being torn down anyway.
    }
}

/**
 * Send @p record, reporting failure instead of throwing.  @return
 * false when the write failed — the caller must then CLOSE the
 * connection: swallowing a failed reply on a connection that stays
 * open would leave a live client blocked forever on a record that
 * was never delivered.
 */
bool
sendOrClose(int fd, const Json &record)
{
    try {
        sendLine(fd, record);
        return true;
    } catch (const SimError &) {
        return false;
    }
}

/** What one served run produced: the outcome plus where it came from. */
struct ServedRun
{
    sim::RunOutcome outcome;
    std::string source; ///< "store", "sim", "shared", or "" on error
    bool insertFailed = false; ///< computed fine, but not durably cached
};

/**
 * The per-run serving step: consult/fill the store around the sweep
 * runner's journal-consult/retry/fault-capture machinery.  Never
 * throws; every failure lands in the outcome (same contract as
 * SweepRunner::runOutcomes).
 */
ServedRun
serveOne(const sim::SimConfig &config, const sim::SweepRunner &runner,
         ResultStore &store, const std::string &experiment_id,
         const std::atomic<bool> &cancel, const std::string &rid,
         std::size_t run_index)
{
    ServedRun served;
    served.outcome.workload = config.workloadName;
    served.outcome.configTag = config.tag();

    // Check cancellation before even touching the store: an aborted
    // request should stop doing work of any kind.
    if (cancel.load(std::memory_order_acquire)) {
        served.outcome.errorKind = "cancelled";
        served.outcome.errorMessage = "run cancelled before execution";
        return served;
    }

    obs::LogSpan span("run", rid, [&](Json &fields) {
        fields["run"] = Json(static_cast<std::uint64_t>(run_index));
        fields["workload"] = config.workloadName;
        fields["config"] = config.tag();
    });
    try {
        std::string key =
            ResultStore::keyFor(sim::toMachineFile(config), experiment_id);
        {
            obs::LogSpan fetch("store_fetch", rid, [&](Json &fields) {
                fields["key"] = key;
            });
            served.outcome.result = store.fetchOrCompute(
                key,
                [&]() {
                    sim::RunOutcome inner = runner.runOne(config);
                    if (!inner.ok())
                        std::rethrow_exception(inner.exception);
                    return inner.result;
                },
                &served.source, &served.insertFailed);
            fetch.note("source", Json(served.source));
        }
        served.outcome.hasResult = true;
        span.note("source", Json(served.source));
    } catch (const SimError &error) {
        served.outcome.errorKind = error.kind();
        served.outcome.errorMessage = error.what();
        span.note("error", Json(served.outcome.errorKind));
    } catch (const std::exception &error) {
        served.outcome.errorKind = "exception";
        served.outcome.errorMessage = error.what();
        span.note("error", Json(served.outcome.errorKind));
    }
    return served;
}

} // namespace

Server::Server(ServerOptions options, ResultStore *store)
    : options_(std::move(options)), store_(store)
{
    auto &registry = obs::MetricsRegistry::instance();
    sweepRequests_ =
        registry.counter("serve.requests", "sweep requests accepted");
    controlRequests_ = registry.counter(
        "serve.control_requests", "ping/metrics/flush requests handled");
    badRequests_ = registry.counter("serve.bad_requests",
                                    "requests rejected with error records");
    accepts_ =
        registry.counter("serve.accepts", "client connections accepted");
    tornFrames_ = registry.counter(
        "serve.torn_frames", "incomplete trailing frames discarded at EOF");
    writeFailures_ = registry.counter(
        "serve.write_failures",
        "response writes that failed (client vanished or chaos)");
    runs_ = registry.counter("serve.runs", "grid runs served");
    storeHits_ =
        registry.counter("serve.store_hits", "runs served from the store");
    shared_ = registry.counter("serve.shared",
                               "runs that joined another request's flight");
    simulated_ =
        registry.counter("serve.simulated", "runs actually executed");
    errors_ = registry.counter("serve.errors", "runs that failed");
    cancelled_ = registry.counter("serve.cancelled", "runs cancelled");
    insertFailures_ = registry.counter(
        "serve.insert_failures",
        "served results that could not be durably cached");
    inFlightRequests_ = registry.gauge("serve.in_flight_requests",
                                       "sweep requests being served now");
    sweepLatency_ = registry.histogram(
        "serve.request_latency_us.sweep",
        obs::MetricsRegistry::latencyBucketsUs(),
        "sweep request service time, microseconds");
    controlLatency_ = registry.histogram(
        "serve.request_latency_us.control",
        obs::MetricsRegistry::latencyBucketsUs(),
        "ping/metrics/flush service time, microseconds");
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    sockaddr_un addr{};
    if (options_.socketPath.empty() ||
        options_.socketPath.size() >= sizeof(addr.sun_path))
        throw IoError("socket path '" + options_.socketPath +
                      "' is empty or too long for a Unix socket");

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw IoError(std::string("cannot create server socket: ") +
                      std::strerror(errno));

    // A stale socket file from a previous run would make bind fail;
    // the path is ours to claim.
    ::unlink(options_.socketPath.c_str());

    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        throw IoError("cannot bind '" + options_.socketPath +
                      "': " + std::strerror(saved));
    }
    if (::listen(listenFd_, 16) != 0) {
        int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(options_.socketPath.c_str());
        throw IoError("cannot listen on '" + options_.socketPath +
                      "': " + std::strerror(saved));
    }

    // The registry is process-wide and outlives any one server; zero
    // this server's prefixes so stats() and the metrics snapshots are
    // exact per-session counts (tests run several servers per process).
    auto &registry = obs::MetricsRegistry::instance();
    registry.zeroPrefix("serve.");
    registry.zeroPrefix("pool.serve.");
    ridSeq_.store(0, std::memory_order_relaxed);
    startTime_ = std::chrono::steady_clock::now();

    stopRequested_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    acceptThread_ = std::thread([this]() { acceptLoop(); });
    if (!options_.metricsFile.empty()) {
        {
            std::lock_guard<std::mutex> lock(exporterMutex_);
            exporterStop_ = false;
        }
        exporterThread_ = std::thread([this]() { exporterLoop(); });
    }
    inform(Msg() << "cpe_serve: listening on " << options_.socketPath);
}

void
Server::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel)) {
        // Never started, or a previous stop already ran to completion.
        if (!acceptThread_.joinable())
            return;
    }
    stopRequested_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();

    if (acceptThread_.joinable())
        acceptThread_.join();
    if (exporterThread_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(exporterMutex_);
            exporterStop_ = true;
        }
        exporterCv_.notify_all();
        exporterThread_.join();
        // One final snapshot so the file reflects the completed
        // session, not wherever the last interval happened to land.
        writeMetricsFile();
    }
    std::vector<std::thread> connections;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections.swap(connections_);
    }
    for (auto &thread : connections)
        if (thread.joinable())
            thread.join();

    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(options_.socketPath.c_str());
    }
}

void
Server::waitForShutdownRequest()
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [this]() { return shutdownRequested_; });
}

Server::Stats
Server::stats() const
{
    Stats stats;
    stats.requests = sweepRequests_->value();
    stats.badRequests = badRequests_->value();
    stats.runs = runs_->value();
    stats.storeHits = storeHits_->value();
    stats.shared = shared_->value();
    stats.simulated = simulated_->value();
    stats.errors = errors_->value();
    stats.cancelled = cancelled_->value();
    stats.insertFailures = insertFailures_->value();
    return stats;
}

Json
Server::metricsJson() const
{
    Json doc = Json::object();
    doc["uptime_ms"] = Json(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - startTime_)
            .count());
    doc["metrics"] = obs::MetricsRegistry::instance().snapshotJson();
    doc["chaos"] = util::FaultInjector::instance().statsJson();
    return doc;
}

std::string
Server::nextRid()
{
    return "r-" + std::to_string(
                      ridSeq_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void
Server::exporterLoop()
{
    std::unique_lock<std::mutex> lock(exporterMutex_);
    for (;;) {
        exporterCv_.wait_for(
            lock,
            std::chrono::milliseconds(
                std::max(options_.metricsIntervalMs, 1u)),
            [this]() { return exporterStop_; });
        if (exporterStop_)
            return; // stop() writes the final snapshot after the join
        lock.unlock();
        writeMetricsFile();
        lock.lock();
    }
}

void
Server::writeMetricsFile()
{
    // tmp + rename, the store's discipline: a scraper reading the file
    // mid-write sees the previous complete snapshot, never a torn one.
    const std::string tmp =
        options_.metricsFile + ".tmp." + std::to_string(::getpid());
    try {
        {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out ||
                !(out << obs::MetricsRegistry::instance()
                             .prometheusText()) ||
                !out.flush())
                throw IoError("cannot write metrics snapshot '" + tmp +
                              "'");
        }
        std::error_code ec;
        std::filesystem::rename(tmp, options_.metricsFile, ec);
        if (ec)
            throw IoError("cannot publish metrics snapshot '" +
                          options_.metricsFile + "': " + ec.message());
    } catch (const SimError &error) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        warn(Msg() << "cpe_serve: metrics snapshot failed: "
                   << error.what());
    }
}

void
Server::acceptLoop()
{
    while (!stopRequested_.load(std::memory_order_acquire)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, kPollMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn(Msg() << "cpe_serve: accept poll failed: "
                       << std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn(Msg() << "cpe_serve: accept failed: "
                       << std::strerror(errno));
            break;
        }
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections_.emplace_back(
            [this, fd]() { serveConnection(fd); });
    }
}

void
Server::serveConnection(int fd)
{
    accepts_->inc();
    LineReader reader;
    // Flipped when this connection's client goes away (a response
    // write fails): queued runs of its in-progress request then
    // complete as "cancelled" instead of simulating.
    std::atomic<bool> cancel{false};
    char buffer[4096];
    bool open = true;
    while (open && !stopRequested_.load(std::memory_order_acquire)) {
        pollfd pfd{fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, kPollMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;
        ssize_t got;
        try {
            if (CPE_FAULT_POINT("serve.request_read"))
                throw IoError(
                    "chaos: injected fault at serve.request_read");
            got = ::recv(fd, buffer, sizeof(buffer), 0);
        } catch (const SimError &error) {
            // A failed read leaves the request stream unsynchronized;
            // report and drop the connection (the client reconnects),
            // never the server.
            trySendLine(fd, requestErrorRecord(error.kind(),
                                               error.what()));
            break;
        }
        if (got < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (got == 0) {
            // EOF: client is gone.  A torn trailing frame is simply
            // discarded — a dropped request, never a half-parse.
            if (reader.pendingBytes()) {
                tornFrames_->inc();
                inform(Msg() << "cpe_serve: discarding "
                             << reader.pendingBytes()
                             << " byte(s) of torn trailing frame");
            }
            break;
        }
        reader.append(buffer, static_cast<std::size_t>(got));
        std::string line;
        while (open && reader.next(line)) {
            if (line.empty())
                continue;
            open = handleLine(fd, line, cancel);
        }
    }
    cancel.store(true, std::memory_order_release);
    ::close(fd);
}

bool
Server::handleLine(int fd, const std::string &line,
                   std::atomic<bool> &cancel)
{
    Json doc;
    std::string parse_error;
    if (!Json::tryParse(line, doc, parse_error) || !doc.isObject()) {
        badRequests_->inc();
        // The connection survives a junk request — but only if the
        // error record actually reached the client.
        return sendOrClose(fd, requestErrorRecord(
                                   "config",
                                   "request is not a JSON object: " +
                                       parse_error));
    }

    const Json *type = doc.find("t");
    std::string kind =
        type && type->isString() ? type->asString() : std::string();
    if (kind == "sweep")
        return handleSweep(fd, doc, cancel);
    if (kind == "ping") {
        obs::ScopedTimerUs timer(controlLatency_);
        controlRequests_->inc();
        Json pong = Json::object();
        pong["t"] = "pong";
        pong["protocol"] = kProtocolVersion;
        return sendOrClose(fd, pong);
    }
    if (kind == "metrics") {
        obs::ScopedTimerUs timer(controlLatency_);
        controlRequests_->inc();
        return sendOrClose(fd, metricsRecord(metricsJson()));
    }
    if (kind == "flush") {
        obs::ScopedTimerUs timer(controlLatency_);
        controlRequests_->inc();
        store_->clear();
        Json flushed = Json::object();
        flushed["t"] = "flushed";
        return sendOrClose(fd, flushed);
    }
    if (kind == "shutdown") {
        Json bye = Json::object();
        bye["t"] = "bye";
        trySendLine(fd, bye);
        {
            std::lock_guard<std::mutex> lock(shutdownMutex_);
            shutdownRequested_ = true;
        }
        shutdownCv_.notify_all();
        return false;
    }

    badRequests_->inc();
    return sendOrClose(fd, requestErrorRecord(
                               "config",
                               "unknown request type '" + kind + "'"));
}

std::vector<sim::SimConfig>
Server::expandRequest(const SweepRequest &request)
{
    // The base config a client's machine file supplies: every grid
    // point starts from it, exactly as cpe_eval starts from defaults.
    sim::SimConfig base = sim::SimConfig::defaults();
    if (!request.machineText.empty()) {
        sim::ConfigParseResult parsed =
            sim::parseConfig(request.machineText);
        if (!parsed.ok)
            throw ConfigError("machine file in request: " + parsed.error);
        base = parsed.config;
    }

    auto &registry = workload::WorkloadRegistry::instance();
    for (const auto &name : request.workloads)
        if (!registry.has(name))
            throw ConfigError("unknown workload '" + name +
                              "' in request");

    if (!request.experiment.empty()) {
        // Registry lookup throws a ConfigError naming every valid id —
        // exactly the structured response a remote client needs.
        const exp::Experiment &experiment =
            exp::ExperimentRegistry::instance().get(request.experiment);
        std::vector<std::string> workloads = request.workloads;
        if (workloads.empty())
            workloads = experiment.workloads.empty()
                            ? workload::WorkloadRegistry::evaluationSuite()
                            : experiment.workloads;
        // An empty RunContext: the server adds nothing to a run.
        return exp::suiteConfigs(experiment.variants(), workloads, {},
                                 base);
    }

    // Machine-only request: one run per requested workload (or the
    // machine file's own workload when none are named).
    std::vector<std::string> workloads = request.workloads;
    if (workloads.empty())
        workloads.push_back(base.workloadName);
    std::vector<sim::SimConfig> configs;
    configs.reserve(workloads.size());
    for (const auto &name : workloads) {
        sim::SimConfig config = base;
        config.workloadName = name;
        configs.push_back(std::move(config));
    }
    return configs;
}

bool
Server::handleSweep(int fd, const Json &doc, std::atomic<bool> &cancel)
{
    SweepRequest request;
    std::vector<sim::SimConfig> configs;
    try {
        request = SweepRequest::fromJson(doc);
        configs = expandRequest(request);
    } catch (const SimError &error) {
        badRequests_->inc();
        // The connection survives a rejected request — but only if
        // the error record actually reached the client.
        return sendOrClose(fd,
                           requestErrorRecord(error.kind(), error.what()));
    }

    sweepRequests_->inc();
    const std::string rid = nextRid();
    obs::ScopedTimerUs timer(sweepLatency_);
    inFlightRequests_->add(1);
    obs::LogSpan span("request", rid, [&](Json &fields) {
        if (!request.experiment.empty())
            fields["experiment"] = request.experiment;
        fields["runs"] = Json(static_cast<std::uint64_t>(configs.size()));
    });

    bool writeFailed = false;
    try {
        sendLine(fd, acceptedRecord(request, configs.size(), rid));
    } catch (const SimError &) {
        writeFailed = true;
        cancel.store(true, std::memory_order_release);
    }

    unsigned jobs =
        request.jobs ? request.jobs
                     : (options_.jobs ? options_.jobs
                                      : sim::SweepRunner::defaultJobs());
    unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        std::max(jobs, 1u), std::max<std::size_t>(configs.size(), 1)));

    util::RetryPolicy policy = sim::SweepRunner::defaultRetryPolicy();
    policy.maxAttempts =
        std::min(request.retries, options_.maxRetries) + 1;
    sim::SweepRunner runner(1);
    runner.setRetryPolicy(policy);
    runner.setCancelFlag(&cancel);

    // Force the workload registry (a lazily-built singleton) into
    // existence before any worker touches it.
    workload::WorkloadRegistry::instance();

    // The pool observer reads clocks per task; install it only when
    // telemetry is armed so disarmed serving stays timing-free.
    // Declared before the pool: workers may still call it while the
    // pool destructor drains.
    obs::PoolMetricsObserver poolObserver("pool.serve");
    util::ThreadPool pool(workers);
    if (obs::MetricsRegistry::armed())
        pool.setObserver(&poolObserver);
    std::vector<std::future<ServedRun>> futures;
    futures.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        futures.push_back(pool.submit([&, i]() {
            return serveOne(configs[i], runner, *store_,
                            request.experiment, cancel, rid, i + 1);
        }));

    // Drain in submission order: the response stream is deterministic
    // for a given request no matter how many workers ran it.  A write
    // failure flips the cancel flag but never abandons the futures —
    // every worker must finish before the pool is torn down.
    RequestTally tally;
    tally.runs = configs.size();
    for (std::size_t i = 0; i < futures.size(); ++i) {
        if (!writeFailed) {
            try {
                sendLine(fd, progressRecord(i + 1, futures.size(),
                                            configs[i].workloadName,
                                            configs[i].tag()));
            } catch (const SimError &) {
                writeFailed = true;
                cancel.store(true, std::memory_order_release);
            }
        }
        ServedRun served = futures[i].get();
        if (served.outcome.ok()) {
            if (served.source == "store")
                ++tally.storeHits;
            else if (served.source == "shared")
                ++tally.shared;
            else
                ++tally.simulated;
        } else if (served.outcome.errorKind == "cancelled") {
            ++tally.cancelled;
        } else {
            ++tally.errors;
        }
        if (served.insertFailed)
            ++tally.insertFailures;
        if (writeFailed)
            continue;
        try {
            if (served.outcome.ok())
                sendLine(fd, resultRecord(i + 1, served.outcome.result,
                                          served.source));
            else
                sendLine(fd, runErrorRecord(i + 1,
                                            served.outcome.workload,
                                            served.outcome.configTag,
                                            served.outcome.errorKind,
                                            served.outcome.errorMessage));
        } catch (const SimError &) {
            writeFailed = true;
            cancel.store(true, std::memory_order_release);
        }
    }

    // Fold the tally into the server totals BEFORE the done record
    // goes out: a client that has seen "done" must be able to observe
    // its own request in stats() (the smoke gate and the differential
    // tests read stats the moment their sweeps return).
    runs_->inc(tally.runs);
    storeHits_->inc(tally.storeHits);
    shared_->inc(tally.shared);
    simulated_->inc(tally.simulated);
    errors_->inc(tally.errors);
    cancelled_->inc(tally.cancelled);
    insertFailures_->inc(tally.insertFailures);

    if (!writeFailed && !sendOrClose(fd, doneRecord(tally)))
        writeFailed = true;
    if (writeFailed)
        writeFailures_->inc();
    inFlightRequests_->add(-1);
    span.note("tally", tally.toJson());
    // A failed write leaves the client unable to tell where the
    // record stream stands; close the connection so it sees EOF
    // rather than waiting on records that will never come.
    return !writeFailed;
}

} // namespace cpe::serve
