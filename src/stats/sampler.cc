#include "stats/sampler.hh"

#include <cmath>

#include "obs/probe.hh"
#include "util/logging.hh"

namespace cpe::stats {

namespace {

/**
 * num/den as a rate, hardened against degenerate intervals: a
 * zero-cycle tail interval or a quiet stat must yield 0.0, never the
 * NaN/inf a bare division would put in the JSON (which Json::dump
 * renders as null, breaking downstream consumers).
 */
double
finiteRatio(double num, double den)
{
    if (den <= 0.0)
        return 0.0;
    double ratio = num / den;
    return std::isfinite(ratio) ? ratio : 0.0;
}

} // namespace

void
IntervalSampler::attach(const StatGroup &root)
{
    CPE_ASSERT(!started_, "IntervalSampler::attach after start");
    root.forEachScalar(
        [this](const std::string &name, const Scalar &stat) {
            scalars_.push_back(ScalarRef{name, &stat});
        });
    root.forEachDistribution(
        [this](const std::string &name, const Distribution &stat) {
            dists_.push_back(DistRef{name, &stat});
        });
}

void
IntervalSampler::start(Cycle now)
{
    if (!enabled())
        return;
    for (auto &ref : scalars_)
        ref.base = ref.stat->value();
    for (auto &ref : dists_) {
        ref.baseSamples = ref.stat->totalSamples();
        ref.baseSum = ref.stat->sum();
    }
    intervalStart_ = now;
    next_ = now + interval_;
    started_ = true;
}

void
IntervalSampler::rebase(Cycle now)
{
    CPE_ASSERT(started_, "IntervalSampler::rebase before start");
    for (auto &ref : scalars_)
        ref.base = ref.stat->value();
    for (auto &ref : dists_) {
        ref.baseSamples = ref.stat->totalSamples();
        ref.baseSum = ref.stat->sum();
    }
    intervalStart_ = now;
}

double
IntervalSampler::deltaOf(const Json &stats, const std::string &name)
{
    const Json *value = stats.find(name);
    return value ? value->asNumber() : 0.0;
}

void
IntervalSampler::sample(Cycle now)
{
    CPE_ASSERT(started_, "IntervalSampler::sample before start");

    Json stats = Json::object();
    for (auto &ref : scalars_) {
        std::uint64_t value = ref.stat->value();
        // A resetAll() between samples (warm-up boundary) moves the
        // counter backwards; the post-reset value is the whole delta.
        std::uint64_t delta =
            value >= ref.base ? value - ref.base : value;
        ref.base = value;
        if (delta)
            stats[ref.name] = delta;
    }

    Json dists = Json::object();
    for (auto &ref : dists_) {
        std::uint64_t samples = ref.stat->totalSamples();
        double sum = ref.stat->sum();
        std::uint64_t delta_samples = samples >= ref.baseSamples
                                          ? samples - ref.baseSamples
                                          : samples;
        double delta_sum =
            samples >= ref.baseSamples ? sum - ref.baseSum : sum;
        ref.baseSamples = samples;
        ref.baseSum = sum;
        if (!delta_samples)
            continue;
        Json entry = Json::object();
        entry["samples"] = delta_samples;
        entry["mean"] = delta_sum / static_cast<double>(delta_samples);
        dists[ref.name] = std::move(entry);
    }

    Cycle cycles = now - intervalStart_;
    Json record = Json::object();
    record["seq"] = seq_++;
    record["start"] = intervalStart_;
    record["end"] = now;
    record["cycles"] = cycles;

    // Derived per-interval metrics, by well-known stat names; a name
    // that is not attached (or had no activity) contributes 0.
    double committed = deltaOf(stats, "core.committed");
    record["ipc"] = finiteRatio(committed, static_cast<double>(cycles));
    double busy = deltaOf(stats, "core.dcache_unit.dports.busy_cycles");
    double idle = deltaOf(stats, "core.dcache_unit.dports.idle_cycles");
    record["port_util"] = finiteRatio(busy, busy + idle);
    double lb_hits = deltaOf(stats, "core.dcache_unit.line_buffers.hits");
    double lb_lookups =
        deltaOf(stats, "core.dcache_unit.line_buffers.lookups");
    record["lb_hit_rate"] = finiteRatio(lb_hits, lb_lookups);
    double sb_mean = 0.0;
    if (const Json *sb = dists.find("core.dcache_unit.sb_occupancy"))
        sb_mean = sb->at("mean").asNumber();
    record["sb_occ_mean"] = sb_mean;

    record["stats"] = std::move(stats);
    record["dists"] = std::move(dists);

    if (probe_)
        probe_->interval(record);
    records_.push_back(std::move(record));

    intervalStart_ = now;
    next_ = now + interval_;
}

void
IntervalSampler::finalize(Cycle now)
{
    // Phase mode: the engine closes intervals with sampleAt(); the
    // core's end-of-run finalize must not append a bogus tail record
    // covering a fast-forward leg.
    if (phaseMode_)
        return;
    if (!interval_ || !started_)
        return;
    if (now > intervalStart_)
        sample(now);
    started_ = false;
}

Json
IntervalSampler::toJson() const
{
    Json out = Json::object();
    out["interval_cycles"] = interval_;
    if (phaseMode_)
        out["phase_mode"] = true;
    Json intervals = Json::array();
    for (const auto &record : records_)
        intervals.push(record);
    out["intervals"] = std::move(intervals);
    return out;
}

} // namespace cpe::stats
