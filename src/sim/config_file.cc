#include "sim/config_file.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace cpe::sim {

namespace {

std::string
trim(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    std::size_t last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

bool
parseU64(const std::string &value, std::uint64_t &out)
{
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(begin, &end, 0);
    if (end == begin || *end != '\0' || errno == ERANGE)
        return false;
    out = parsed;
    return true;
}

bool
parseF64(const std::string &value, double &out)
{
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    double parsed = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE)
        return false;
    out = parsed;
    return true;
}

bool
parseBool(const std::string &value, bool &out)
{
    if (value == "true" || value == "1" || value == "yes") {
        out = true;
        return true;
    }
    if (value == "false" || value == "0" || value == "no") {
        out = false;
        return true;
    }
    return false;
}

/**
 * How one knob reads and writes its field: parse() stores @p value
 * into the config and returns "" or the error text; emit() appends
 * the field's machine-file spelling.
 */
struct Codec
{
    std::function<std::string(SimConfig &, const std::string &value)>
        parse;
    std::function<void(const SimConfig &, std::string &out)> emit;
};

/** One machine-file key.  The table's row order is the emission
 *  order. */
struct Knob
{
    std::string_view section;  ///< "" = top level
    std::string_view key;
    Codec codec;
    /** Emitted only when this holds (null = always). */
    bool (*emitIf)(const SimConfig &) = nullptr;
};

/** Field accessor usable on const and mutable configs alike. */
#define FIELD(member) [](auto &c) -> auto & { return c.member; }

/** Unsigned integer, decimal or 0x hex. */
template <typename Field>
Codec
num(Field field)
{
    return {[field](SimConfig &c, const std::string &value) -> std::string {
                std::uint64_t parsed;
                if (!parseU64(value, parsed))
                    return "expected a number, got '" + value + "'";
                auto &slot = field(c);
                slot = static_cast<std::remove_reference_t<decltype(slot)>>(
                    parsed);
                return {};
            },
            [field](const SimConfig &c, std::string &out) {
                out += std::to_string(field(c));
            }};
}

/** A byte count written in KiB. */
template <typename Field>
Codec
kib(Field field)
{
    return {[field](SimConfig &c, const std::string &value) -> std::string {
                std::uint64_t parsed;
                if (!parseU64(value, parsed))
                    return "bad size '" + value + "'";
                field(c) = parsed * 1024;
                return {};
            },
            [field](const SimConfig &c, std::string &out) {
                out += std::to_string(field(c) / 1024);
            }};
}

template <typename Field>
Codec
flag(Field field)
{
    return {[field](SimConfig &c, const std::string &value) -> std::string {
                if (!parseBool(value, field(c)))
                    return "expected true/false, got '" + value + "'";
                return {};
            },
            [field](const SimConfig &c, std::string &out) {
                out += field(c) ? "true" : "false";
            }};
}

template <typename Field>
Codec
text(Field field)
{
    return {[field](SimConfig &c, const std::string &value) -> std::string {
                field(c) = value;
                return {};
            },
            [field](const SimConfig &c, std::string &out) {
                out += field(c);
            }};
}

/** A double, emitted as operator<< prints it (%g). */
template <typename Field>
Codec
real(Field field)
{
    return {[field](SimConfig &c, const std::string &value) -> std::string {
                if (!parseF64(value, field(c)))
                    return "expected a number, got '" + value + "'";
                return {};
            },
            [field](const SimConfig &c, std::string &out) {
                char buf[64];
                int n = std::snprintf(buf, sizeof(buf), "%g", field(c));
                out.append(buf, static_cast<std::size_t>(n));
            }};
}

/** A probability in [0, 1], emitted in shortest round-trip form. */
template <typename Field>
Codec
rate(Field field)
{
    return {[field](SimConfig &c, const std::string &value) -> std::string {
                double parsed;
                if (!parseF64(value, parsed))
                    return "expected a number, got '" + value + "'";
                if (parsed < 0.0 || parsed > 1.0)
                    return "rate " + value + " is outside [0, 1]";
                field(c) = parsed;
                return {};
            },
            [field](const SimConfig &c, std::string &out) {
                char buf[64];
                auto end = std::to_chars(buf, buf + sizeof(buf), field(c));
                out.append(buf, end.ptr);
            }};
}

/** An enum through a parse function (throws ConfigError) and its
 *  inverse. */
template <typename Field, typename Parse, typename Name>
Codec
choice(Field field, Parse parse, Name name)
{
    return {[field, parse](SimConfig &c,
                           const std::string &value) -> std::string {
                try {
                    field(c) = parse(value);
                } catch (const ConfigError &error) {
                    return error.what();
                }
                return {};
            },
            [field, name](const SimConfig &c, std::string &out) {
                out += name(field(c));
            }};
}

/** An enum's {name, value} list, read by both directions. */
template <typename E>
using Names = std::vector<std::pair<std::string, E>>;

template <typename Field, typename E>
Codec
choice(Field field, Names<E> names)
{
    auto parse = [names](const std::string &value) {
        for (const auto &[name, e] : names)
            if (name == value)
                return e;
        std::string allowed;
        for (const auto &entry : names)
            allowed += (allowed.empty() ? "" : ", ") + entry.first;
        throw ConfigError("'" + value + "' is not one of " + allowed);
    };
    auto name = [names](E e) -> const std::string & {
        for (const auto &entry : names)
            if (entry.second == e)
                return entry.first;
        return names.front().first;
    };
    return choice(field, parse, name);
}

bool
labelled(const SimConfig &config)
{
    return !config.label.empty();
}

// Emitted only when armed: the disarmed default stays absent, so
// pre-chaos machine files (and every resume-journal key derived from
// this text) are byte-identical to before the section existed.
bool
chaosArmed(const SimConfig &config)
{
    return config.chaos.enabled();
}

/** Every machine-file key, once, in emission order. */
const std::vector<Knob> &
knobs()
{
    using cpu::PredictorKind;
    using core::DrainPolicy;
    using core::FillPolicy;
    using core::LineBufferWritePolicy;
    static const std::vector<Knob> table = {
        {"", "workload", text(FIELD(workloadName))},
        {"", "os_level", num(FIELD(workload.osLevel))},
        {"", "scale", num(FIELD(workload.scale))},
        {"", "seed", num(FIELD(workload.seed))},
        {"", "warmup_insts", num(FIELD(warmupInsts))},
        {"", "label", text(FIELD(label)), labelled},

        {"core", "issue_width", num(FIELD(core.issueWidth))},
        {"core", "rename_width", num(FIELD(core.renameWidth))},
        {"core", "commit_width", num(FIELD(core.commitWidth))},
        {"core", "fetch_width", num(FIELD(core.fetch.fetchWidth))},
        {"core", "rob", num(FIELD(core.robSize))},
        {"core", "iq", num(FIELD(core.iqSize))},
        {"core", "lq", num(FIELD(core.lsq.loadEntries))},
        {"core", "sq", num(FIELD(core.lsq.storeEntries))},
        {"core", "decode_latency", num(FIELD(core.decodeLatency))},
        {"core", "redirect_penalty",
         num(FIELD(core.fetch.redirectPenalty))},
        {"core", "wrong_path_ifetch",
         flag(FIELD(core.fetch.modelWrongPathIFetch))},
        {"core", "max_cycles", num(FIELD(core.maxCycles))},
        {"core", "no_commit_limit", num(FIELD(core.noCommitCycleLimit))},

        {"bpred", "kind",
         choice(FIELD(core.bpred.kind),
                Names<PredictorKind>{
                    {"gshare", PredictorKind::GShare},
                    {"bimodal", PredictorKind::Bimodal},
                    {"local", PredictorKind::Local},
                    {"not_taken", PredictorKind::AlwaysNotTaken}})},
        {"bpred", "table_entries", num(FIELD(core.bpred.tableEntries))},
        {"bpred", "history_bits", num(FIELD(core.bpred.historyBits))},
        {"bpred", "btb_entries", num(FIELD(core.bpred.btbEntries))},
        {"bpred", "ras", num(FIELD(core.bpred.rasEntries))},

        {"l1d", "size_kib", kib(FIELD(core.dcache.cache.sizeBytes))},
        {"l1d", "assoc", num(FIELD(core.dcache.cache.assoc))},
        {"l1d", "line", num(FIELD(core.dcache.cache.lineBytes))},
        {"l1d", "hit_latency", num(FIELD(core.dcache.hitLatency))},
        {"l1d", "mshrs", num(FIELD(core.dcache.mshrs))},
        {"l1d", "victim_entries", num(FIELD(core.dcache.victimEntries))},
        {"l1d", "prefetch_next_line",
         flag(FIELD(core.dcache.nextLinePrefetch))},

        {"l1i", "size_kib", kib(FIELD(core.fetch.icache.sizeBytes))},
        {"l1i", "assoc", num(FIELD(core.fetch.icache.assoc))},

        {"tech", "ports", num(FIELD(core.dcache.tech.ports))},
        {"tech", "width", num(FIELD(core.dcache.tech.portWidthBytes))},
        {"tech", "banks", num(FIELD(core.dcache.tech.banks))},
        {"tech", "store_buffer",
         num(FIELD(core.dcache.tech.storeBufferEntries))},
        {"tech", "combining", flag(FIELD(core.dcache.tech.storeCombining))},
        {"tech", "drain",
         choice(FIELD(core.dcache.tech.drainPolicy),
                Names<DrainPolicy>{
                    {"idle", DrainPolicy::IdleOnly},
                    {"eager", DrainPolicy::Eager},
                    {"threshold", DrainPolicy::Threshold}})},
        {"tech", "drain_threshold",
         num(FIELD(core.dcache.tech.drainThreshold))},
        {"tech", "line_buffers", num(FIELD(core.dcache.tech.lineBuffers))},
        {"tech", "line_buffer_write",
         choice(FIELD(core.dcache.tech.lineBufferWrite),
                Names<LineBufferWritePolicy>{
                    {"patch", LineBufferWritePolicy::Update},
                    {"invalidate", LineBufferWritePolicy::Invalidate}})},
        {"tech", "flush_on_mode_switch",
         flag(FIELD(core.dcache.tech.flushLineBuffersOnModeSwitch))},
        {"tech", "fill",
         choice(FIELD(core.dcache.tech.fillPolicy),
                Names<FillPolicy>{
                    {"steal", FillPolicy::StealPort},
                    {"dedicated", FillPolicy::DedicatedFillPort}})},
        {"tech", "fill_cycles",
         num(FIELD(core.dcache.tech.fillOccupancyCycles))},

        {"l2", "size_kib", kib(FIELD(l2.cache.sizeBytes))},
        {"l2", "assoc", num(FIELD(l2.cache.assoc))},
        {"l2", "hit_latency", num(FIELD(l2.hitLatency))},

        {"dram", "latency", num(FIELD(dram.latency))},
        {"dram", "cycles_per_line", num(FIELD(dram.cyclesPerLine))},

        {"obs", "sample_cycles", num(FIELD(obs.sampleCycles))},
        {"obs", "profile", num(FIELD(obs.profileTop))},

        {"sim", "trace_cache_mb", num(FIELD(traceCacheMb))},

        {"sample", "mode",
         choice(FIELD(sample.mode), SampleParams::parseMode,
                SampleParams::modeName)},
        {"sample", "measure_insts", num(FIELD(sample.measureInsts))},
        {"sample", "warmup_insts", num(FIELD(sample.warmupInsts))},
        {"sample", "period_insts", num(FIELD(sample.periodInsts))},
        {"sample", "intervals", num(FIELD(sample.intervals))},
        {"sample", "confidence", real(FIELD(sample.confidence))},

        {"chaos", "seed", num(FIELD(chaos.seed)), chaosArmed},
        {"chaos", "rate", rate(FIELD(chaos.rate)), chaosArmed},
        {"chaos", "point", text(FIELD(chaos.points)), chaosArmed},
    };
    return table;
}

#undef FIELD

/** The rows of @p section, which the table keeps contiguous (empty
 *  for a section the table lacks). */
std::span<const Knob>
sectionRows(std::string_view section)
{
    const auto &table = knobs();
    auto in_section = [&](const Knob &knob) {
        return knob.section == section;
    };
    auto first = std::find_if(table.begin(), table.end(), in_section);
    return {first, std::find_if_not(first, table.end(), in_section)};
}

const Knob *
findKnob(std::span<const Knob> rows, std::string_view key)
{
    for (const auto &knob : rows)
        if (knob.key == key)
            return &knob;
    return nullptr;
}

} // namespace

ConfigParseResult
parseConfig(const std::string &source)
{
    ConfigParseResult result;
    SimConfig config = SimConfig::defaults();
    std::string section;
    std::span<const Knob> rows = sectionRows(section);

    std::istringstream stream(source);
    std::string raw;
    unsigned line_no = 0;
    while (std::getline(stream, raw)) {
        ++line_no;
        for (const char mark : {'#', ';'}) {
            std::size_t pos = raw.find(mark);
            if (pos != std::string::npos)
                raw = raw.substr(0, pos);
        }
        std::string line = trim(raw);
        if (line.empty())
            continue;

        auto err = [&](const std::string &message) {
            result.error =
                "line " + std::to_string(line_no) + ": " + message;
            return result;
        };

        if (line.front() == '[') {
            if (line.back() != ']')
                return err("unterminated section header");
            section = trim(line.substr(1, line.size() - 2));
            rows = sectionRows(section);
            if (rows.empty())
                return err("unknown section [" + section + "]");
            continue;
        }

        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return err("expected key = value");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));

        const Knob *knob = findKnob(rows, key);
        if (!knob) {
            return err("unknown key '" + key + "' in section [" +
                       section + "]");
        }
        std::string error = knob->codec.parse(config, value);
        if (!error.empty())
            return err(error);
    }

    result.ok = true;
    result.config = std::move(config);
    return result;
}

std::string
toMachineFile(const SimConfig &config)
{
    std::string out = "# cpesim machine file (generated by toMachineFile)\n";
    std::string_view section;
    for (const auto &knob : knobs()) {
        if (knob.emitIf && !knob.emitIf(config))
            continue;
        if (section != knob.section) {
            section = knob.section;
            out += "\n[";
            out += section;
            out += "]\n";
        }
        out += knob.key;
        out += " = ";
        knob.codec.emit(config, out);
        out += '\n';
    }
    return out;
}

std::string
knobValue(const SimConfig &config, const std::string &section,
          const std::string &key)
{
    const Knob *knob = findKnob(sectionRows(section), key);
    if (!knob)
        throw ConfigError("no machine-file key '" + key +
                          "' in section [" + section + "]");
    std::string out;
    knob->codec.emit(config, out);
    return out;
}

std::string
canonicalMachineFile(const std::string &source)
{
    ConfigParseResult parsed = parseConfig(source);
    if (!parsed.ok)
        throw ConfigError("machine-file text does not parse: " +
                          parsed.error);
    return toMachineFile(parsed.config);
}

ConfigParseResult
loadConfigFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file) {
        ConfigParseResult result;
        result.error = "cannot open '" + path + "'";
        return result;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    return parseConfig(buffer.str());
}

} // namespace cpe::sim
