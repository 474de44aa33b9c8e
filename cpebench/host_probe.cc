#include "host_probe.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace cpebench {

namespace {

/** 32 KiB of keys: the sort stays in the L1/L2 caches. */
constexpr std::size_t kKeys = 8192;
constexpr unsigned kWarmupSamples = 8;

} // namespace

HostProbe::HostProbe() : keys_(kKeys)
{
    for (unsigned i = 0; i < kWarmupSamples; ++i)
        sampleUs();
}

double
HostProbe::scaleFor(double mean_us)
{
    return mean_us > 0.0 ? std::pow(kReferenceUs / mean_us, kSensitivity)
                         : 1.0;
}

double
HostProbe::sampleUs()
{
    for (std::uint32_t &key : keys_) {
        state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
        key = static_cast<std::uint32_t>(state_ >> 32);
    }
    auto start = std::chrono::steady_clock::now();
    std::sort(keys_.begin(), keys_.end());
    auto end = std::chrono::steady_clock::now();
    // Keep the sorted keys live.
    sink_ += keys_[kKeys / 2];
    return std::chrono::duration<double, std::micro>(end - start).count();
}

} // namespace cpebench
