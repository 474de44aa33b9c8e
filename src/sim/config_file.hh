/**
 * @file
 * Machine-description files: a small INI dialect that builds a
 * SimConfig, so experiments can be defined in version-controlled text
 * instead of C++.
 *
 *   # comments with '#' or ';'
 *   workload = compress          # top-level keys
 *   os_level = 1
 *   [core]                       # sections per subsystem
 *   issue_width = 8
 *   [tech]
 *   ports = 1
 *   width = 32
 *   store_buffer = 8
 *   line_buffers = 4
 *
 * Unknown sections or keys are hard errors (catching typos beats
 * silently ignoring them); values are validated per key.  Every key is
 * declared once, as one row of a table in config_file.cc naming its
 * section, key, and codec (how the field is read and written);
 * parseConfig() and toMachineFile() both walk that table, and its row
 * order is the emission order.  See `docs/machine_files.md` for the
 * full key list.
 */

#ifndef CPE_SIM_CONFIG_FILE_HH
#define CPE_SIM_CONFIG_FILE_HH

#include <string>

#include "sim/config.hh"

namespace cpe::sim {

/** Outcome of parsing a machine file. */
struct ConfigParseResult
{
    bool ok = false;
    std::string error;  ///< first error, with a line number
    SimConfig config;   ///< defaults overlaid with the file (valid on ok)

    explicit operator bool() const { return ok; }
};

/** Parse machine-description text (starting from SimConfig::defaults). */
ConfigParseResult parseConfig(const std::string &source);

/** Load and parse a machine file from disk. */
ConfigParseResult loadConfigFile(const std::string &path);

/**
 * Serialize @p config as machine-file text that parseConfig() reads
 * back to an equivalent configuration — the reproducibility artefact
 * to archive next to a run's results.
 */
std::string toMachineFile(const SimConfig &config);

/**
 * The machine-file spelling of one knob of @p config, e.g.
 * knobValue(config, "bpred", "kind") == "gshare" — how
 * SimConfig::describe() names enum values without its own copy of
 * them.  Throws ConfigError for a (section, key) the table lacks.
 */
std::string knobValue(const SimConfig &config, const std::string &section,
                      const std::string &key);

/**
 * The canonical form of machine-file text: parse @p source and
 * re-serialize the result, so reordered sections, comments, and
 * whitespace all collapse to one representation.  Everything that
 * hashes machine-file text into a cache key (sim::RunJournal,
 * serve::ResultStore) goes through this round trip, so two equivalent
 * descriptions of one machine always hit the same entry.  Throws
 * ConfigError when @p source does not parse.
 */
std::string canonicalMachineFile(const std::string &source);

} // namespace cpe::sim

#endif // CPE_SIM_CONFIG_FILE_HH
