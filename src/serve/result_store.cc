#include "serve/result_store.hh"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "func/trace_file.hh"
#include "sim/config_file.hh"
#include "sim/run_journal.hh"
#include "util/durable.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace cpe::serve {

namespace {

/** FNV-1a 64-bit, matching the journal/trace-cache key hashing. */
std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
memberString(const Json &doc, const char *key)
{
    const Json *member = doc.find(key);
    return member && member->isString() ? member->asString()
                                        : std::string();
}

} // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    auto &registry = obs::MetricsRegistry::instance();
    hitsCounter_ =
        registry.counter("store.hits", "lookups served from disk");
    missesCounter_ =
        registry.counter("store.misses", "lookups that found nothing");
    corruptCounter_ = registry.counter(
        "store.corrupt", "unreadable entries treated as misses");
    insertsCounter_ =
        registry.counter("store.inserts", "entries durably written");
    insertFailuresCounter_ = registry.counter(
        "store.insert_failures", "entry writes that failed");
    computesCounter_ = registry.counter(
        "store.computes", "compute callbacks executed (cache fills)");
    sharedWaitsCounter_ = registry.counter(
        "store.shared_waits", "waiters that joined an in-flight compute");
    entriesGauge_ =
        registry.gauge("store.entries", "complete entries on disk");
    bytesGauge_ =
        registry.gauge("store.bytes", "bytes of entries on disk");
    fetchLatency_ = registry.histogram(
        "store.fetch_latency_us", obs::MetricsRegistry::latencyBucketsUs(),
        "fetchOrCompute leader path, microseconds");
    syncUsageGauges();

    // Sweep tmp leftovers a crashed writer abandoned: they can never
    // become live entries (their rename never happened), and leaving
    // them around would make the directory grow without bound.
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec);
    if (ec)
        return; // no store dir yet: created on first insert
    std::size_t swept = 0;
    for (const auto &entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.find(".json.tmp.") == std::string::npos)
            continue;
        std::filesystem::remove(entry.path(), ec);
        if (!ec)
            ++swept;
    }
    if (swept)
        inform(Msg() << "result store: swept " << swept
                     << " orphaned tmp file(s) from " << dir_);
}

std::string
ResultStore::version()
{
    std::ostringstream out;
    out << "serve-1|sim-" << sim::simulatorVersion() << "|cpet-"
        << func::traceFileVersion();
    return out.str();
}

std::string
versionSummary()
{
    std::ostringstream out;
    out << "simulator " << sim::simulatorVersion() << ", cpet trace "
        << func::traceFileVersion() << ", store schema "
        << ResultStore::version();
    return out.str();
}

std::string
ResultStore::keyFor(const std::string &machine_text,
                    const std::string &experiment_id,
                    const std::string &store_version)
{
    // Canonicalize first: two machine files that parse to the same
    // config — reordered sections, comments, whitespace — must land
    // on the same entry.  The '@' lines cannot collide with machine
    // text ('@' is not valid machine-file syntax).
    std::string canonical = sim::canonicalMachineFile(machine_text);
    return hex64(fnv1a64(canonical + "\n@experiment=" + experiment_id +
                         "\n@version=" + store_version));
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    return dir_ + "/" + key + ".json";
}

bool
ResultStore::lookup(const std::string &key, sim::SimResult &out)
{
    const std::string path = entryPath(key);
    std::string text;
    try {
        if (CPE_FAULT_POINT("serve.store_read"))
            throw IoError("chaos: injected fault at serve.store_read");
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            missesCounter_->inc();
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.misses;
            return false;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    } catch (const SimError &error) {
        // An unreadable entry costs one re-execution, nothing more;
        // the next insert overwrites it with a fresh one.
        warn(Msg() << "result store: treating " << path
                   << " as a miss: " << error.what());
        corruptCounter_->inc();
        missesCounter_->inc();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.corrupt;
        ++stats_.misses;
        return false;
    }

    Json doc;
    std::string parse_error;
    std::string why;
    if (!Json::tryParse(text, doc, parse_error) || !doc.isObject())
        why = "unparseable entry (" + parse_error + ")";
    else if (memberString(doc, "k") != key)
        why = "key mismatch (torn or misnamed entry)";
    else if (memberString(doc, "version") != version())
        why = "version '" + memberString(doc, "version") +
              "' does not match '" + version() + "'";
    else if (const Json *result = doc.find("result");
             !result || !result->isObject())
        why = "entry has no result member";
    else {
        out = sim::resultFromJson(*result);
        hitsCounter_->inc();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.hits;
        return true;
    }

    warn(Msg() << "result store: treating " << path << " as a miss: "
               << why);
    corruptCounter_->inc();
    missesCounter_->inc();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupt;
    ++stats_.misses;
    return false;
}

void
ResultStore::insert(const std::string &key, const sim::SimResult &result)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        throw IoError("cannot create result store directory '" + dir_ +
                      "': " + ec.message());

    Json doc = Json::object();
    doc["t"] = "entry";
    doc["k"] = key;
    doc["version"] = version();
    doc["workload"] = result.workload;
    doc["config"] = result.configTag;
    doc["result"] = sim::resultToJson(result);
    std::string line = doc.dump();
    line.push_back('\n');

    const std::string path = entryPath(key);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    try {
        if (CPE_FAULT_POINT("serve.store_write"))
            throw IoError("chaos: injected fault at serve.store_write");
        {
            std::ofstream outFile(tmp, std::ios::binary | std::ios::trunc);
            if (!outFile || !(outFile << line) || !outFile.flush())
                throw IoError("cannot write result store entry '" + tmp +
                              "'");
        }
        fsyncPath(tmp, false);
        std::filesystem::rename(tmp, path, ec);
        if (ec)
            throw IoError("cannot publish result store entry '" + path +
                          "': " + ec.message());
        fsyncPath(dir_, true);
    } catch (...) {
        std::filesystem::remove(tmp, ec);
        insertFailuresCounter_->inc();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.insertFailures;
        }
        throw;
    }
    insertsCounter_->inc();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.inserts;
    }
    syncUsageGauges();
}

sim::SimResult
ResultStore::fetchOrCompute(const std::string &key,
                            const std::function<sim::SimResult()> &compute,
                            std::string *source, bool *insert_failed)
{
    if (insert_failed)
        *insert_failed = false;
    // Single-flight: the first caller of a key installs a promise and
    // computes outside the lock; concurrent callers of the same key
    // block on the shared future instead of re-simulating.
    std::shared_future<sim::SimResult> flight;
    bool leader = false;
    std::promise<sim::SimResult> promise;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = inFlight_.find(key);
        if (it != inFlight_.end()) {
            flight = it->second;
            sharedWaitsCounter_->inc();
            ++stats_.sharedWaits;
        } else {
            flight = promise.get_future().share();
            inFlight_.emplace(key, flight);
            leader = true;
        }
    }

    if (!leader) {
        if (source)
            *source = "shared";
        return flight.get(); // rethrows the leader's failure
    }

    obs::ScopedTimerUs timer(fetchLatency_);
    sim::SimResult result;
    try {
        if (lookup(key, result)) {
            if (source)
                *source = "store";
            promise.set_value(result);
            std::lock_guard<std::mutex> lock(mutex_);
            inFlight_.erase(key);
            return result;
        }
        computesCounter_->inc();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.computes;
        }
        result = compute();
    } catch (...) {
        // Failures propagate to every waiter of this flight and are
        // never memoized: the next request retries from scratch.
        promise.set_exception(std::current_exception());
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inFlight_.erase(key);
        }
        throw;
    }

    if (source)
        *source = "sim";
    try {
        insert(key, result);
    } catch (const SimError &error) {
        // Losing durability for one entry costs a re-simulation on
        // some future request; losing the result would cost this one.
        // The caller learns through insert_failed (and the counters)
        // that its correct answer was not cached.
        if (insert_failed)
            *insert_failed = true;
        warn(Msg() << "result store: could not store " << key << ": "
                   << error.what());
    }
    promise.set_value(result);
    std::lock_guard<std::mutex> lock(mutex_);
    inFlight_.erase(key);
    return result;
}

void
ResultStore::clear()
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec);
    if (ec)
        return;
    std::size_t removed = 0;
    for (const auto &entry : it) {
        if (entry.path().extension() != ".json")
            continue;
        std::filesystem::remove(entry.path(), ec);
        if (!ec)
            ++removed;
    }
    if (removed)
        inform(Msg() << "result store: cleared " << removed
                     << " entr(y/ies) from " << dir_);
    syncUsageGauges();
}

std::size_t
ResultStore::entries() const
{
    return diskUsage().entries;
}

ResultStore::DiskUsage
ResultStore::diskUsage() const
{
    DiskUsage usage;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec);
    if (ec)
        return usage;
    for (const auto &entry : it) {
        if (entry.path().extension() != ".json")
            continue;
        ++usage.entries;
        std::uint64_t size = entry.file_size(ec);
        if (!ec)
            usage.bytes += size;
    }
    return usage;
}

void
ResultStore::syncUsageGauges() const
{
    DiskUsage usage = diskUsage();
    entriesGauge_->set(static_cast<std::int64_t>(usage.entries));
    bytesGauge_->set(static_cast<std::int64_t>(usage.bytes));
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace cpe::serve
