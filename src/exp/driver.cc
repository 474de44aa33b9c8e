#include "exp/driver.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "exp/registry.hh"
#include "obs/metrics.hh"
#include "sim/run_journal.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/retry.hh"
#include "util/table.hh"
#include "workload/registry.hh"

namespace cpe::exp {

namespace {

/** Documented exit codes (kUsage, docs/robustness.md). */
constexpr int ExitOk = 0;
constexpr int ExitRunFailure = 1;    ///< run failures (--keep-going),
                                     ///< runtime/IO errors
constexpr int ExitConfigError = 2;   ///< config or usage errors
constexpr int ExitBaselineDrift = 3; ///< --check found drift

/** A sink for table output when the stdout format is csv/json. */
class NullBuffer : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
};

constexpr const char *kUsage =
    "usage: cpe_eval <mode> [options]\n"
    "modes (exactly one):\n"
    "  --list                   list registered experiments\n"
    "  --run <ids|all>          run experiments (comma-separated ids,\n"
    "                           e.g. F1,F5,T3)\n"
    "  --check                  regression gate: re-run each\n"
    "                           experiment's primary grid and compare\n"
    "                           geomean IPCs against --baseline\n"
    "  --write-baseline DIR     record baselines (reduced workload\n"
    "                           suite) into DIR\n"
    "  --validate               check every config the selected\n"
    "                           experiments would run, without running\n"
    "                           them; list all diagnostics\n"
    "options:\n"
    "  --workloads a,b,c        override the evaluation workload suite\n"
    "  --jobs N                 sweep worker threads (default: all\n"
    "                           cores, or CPESIM_JOBS)\n"
    "  --format table|csv|json  stdout rendering for --run\n"
    "                           (default: table)\n"
    "  --out DIR                also write one JSON results document\n"
    "                           per experiment into DIR\n"
    "  --baseline DIR           baseline directory for --check\n"
    "  --tolerance PCT          allowed geomean-IPC drift for --check\n"
    "                           (default: 1)\n"
    "  --keep-going             isolate per-run failures: finish the\n"
    "                           sweep, record structured \"errors\"\n"
    "                           entries in the JSON documents, exit\n"
    "                           non-zero with a failure summary\n"
    "  --fault-inject W:KIND    testing hook: sabotage workload W's\n"
    "                           configs (KIND: config | hang);\n"
    "                           repeatable\n"
    "  --trace FILE             write a structured JSONL event trace\n"
    "                           of every run to FILE (schema:\n"
    "                           docs/observability.md)\n"
    "  --sample-cycles N        sample interval stats every N cycles;\n"
    "                           intervals land in the JSON results\n"
    "                           documents and the trace (0 = off)\n"
    "  --profile[=N]            attribute stalls to static PCs: print\n"
    "                           a top-N table per run (default N: 10)\n"
    "                           and add a \"profile\" member to the\n"
    "                           JSON results documents\n"
    "  --trace-cache DIR        spill captured functional traces to DIR\n"
    "                           (CPET files) and reuse them across\n"
    "                           invocations; replay within one\n"
    "                           invocation is on regardless\n"
    "  --trace-cache-mb N       resident-set bound for the shared\n"
    "                           functional-trace cache, MiB (default:\n"
    "                           512; colder captures spill to the\n"
    "                           --trace-cache DIR or are dropped)\n"
    "  --sample-mode MODE       SMARTS-style sampled simulation for\n"
    "                           every run: off | periodic | fixed\n"
    "                           (default: off; see docs/reproducing.md)\n"
    "  --sample-insts N         instructions measured per sample\n"
    "                           interval (default: 2000)\n"
    "  --sample-warmup N        detailed stats-frozen warm-up before\n"
    "                           each interval (default: 1000)\n"
    "  --sample-period N        periodic mode: instructions between\n"
    "                           measurement starts (default: 100000)\n"
    "  --sample-intervals N     fixed mode: measurements spread over\n"
    "                           the stream (default: 30)\n"
    "  --sample-confidence C    confidence level of the reported IPC\n"
    "                           interval (default: 0.95)\n"
    "  --no-replay              execute the functional model live for\n"
    "                           every run instead of capturing once per\n"
    "                           workload and replaying (results are\n"
    "                           byte-identical either way)\n"
    "  --chaos SPEC             deterministic fault injection at every\n"
    "                           I/O and lifecycle seam; SPEC is\n"
    "                           seed=N,rate=P[,point=GLOB] (see\n"
    "                           docs/robustness.md for the point\n"
    "                           catalog)\n"
    "  --retries N              retries per run after a transient\n"
    "                           failure (default: 1; deterministic\n"
    "                           failures are never retried)\n"
    "  --retry-backoff-ms N     base delay before a retry, doubled per\n"
    "                           attempt with deterministic jitter\n"
    "                           (default: 0 = retry immediately)\n"
    "  --resume JOURNAL         crash-safe sweep resume: append one\n"
    "                           fsync'd record per completed run to\n"
    "                           JOURNAL and, on restart, skip runs\n"
    "                           already recorded there\n"
    "  --version                print simulator, CPET trace, and\n"
    "                           result-store schema versions and exit\n"
    "(every --flag VALUE is also accepted as --flag=VALUE)\n"
    "exit codes: 0 success; 1 run failures (--keep-going) or runtime\n"
    "errors; 2 configuration/usage errors (including --validate FAIL);\n"
    "3 baseline drift (--check FAIL)\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "cpe_eval: " << message << "\n" << kUsage;
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

enum class Mode { None, List, Run, Check, WriteBaseline, Validate };
enum class Format { Table, Csv, Json };

struct Options
{
    Mode mode = Mode::None;
    Format format = Format::Table;
    std::vector<std::string> ids;       ///< empty = all registered
    std::vector<std::string> workloads; ///< empty = evaluation suite
    std::string outDir;
    std::string baselineDir;
    double tolerancePct = 1.0;
    bool keepGoing = false;
    /** --fault-inject, --sample-cycles, --profile, --sample-*; evalMain
     *  adds the trace sink and the trace cache. */
    RunContext run;
    std::string tracePath;      ///< --trace: "" = off
    std::string traceCacheDir;  ///< --trace-cache: "" = no spill
    bool noReplay = false;      ///< --no-replay: live functional runs
    std::string chaosSpec;      ///< --chaos: "" = disarmed
    unsigned retries = 1;       ///< --retries: transient retry count
    unsigned retryBackoffMs = 0; ///< --retry-backoff-ms: 0 = immediate
    std::string resumePath;     ///< --resume: "" = no journal
    /** --trace-cache-mb: resident bound for the shared cache. */
    std::size_t traceCacheMb = sim::SimConfig::TraceCacheDefaultResidentMb;
};

std::string
argValue(int argc, char **argv, int &i, const std::string &flag)
{
    if (i + 1 >= argc)
        usageError("flag '" + flag + "' needs a value");
    return argv[++i];
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    auto setMode = [&](Mode mode) {
        if (options.mode != Mode::None)
            usageError("pick exactly one of --list, --run, --check, "
                       "--write-baseline, --validate");
        options.mode = mode;
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        // Both spellings work: "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline = false;
        if (flag.rfind("--", 0) == 0) {
            std::size_t eq = flag.find('=');
            if (eq != std::string::npos) {
                inline_value = flag.substr(eq + 1);
                flag = flag.substr(0, eq);
                has_inline = true;
            }
        }
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            return argValue(argc, argv, i, flag);
        };
        if (flag == "--list") {
            setMode(Mode::List);
        } else if (flag == "--run") {
            std::string ids = value();
            // --check/--write-baseline --run ids narrows those modes;
            // otherwise --run is its own mode.
            if (options.mode == Mode::None)
                setMode(Mode::Run);
            if (ids != "all")
                options.ids = splitList(ids);
        } else if (flag == "--check") {
            if (options.mode == Mode::Run)
                options.mode = Mode::Check;
            else
                setMode(Mode::Check);
        } else if (flag == "--write-baseline") {
            if (options.mode == Mode::Run)
                options.mode = Mode::WriteBaseline;
            else
                setMode(Mode::WriteBaseline);
            options.baselineDir = value();
        } else if (flag == "--validate") {
            if (options.mode == Mode::Run)
                options.mode = Mode::Validate;
            else
                setMode(Mode::Validate);
        } else if (flag == "--keep-going") {
            options.keepGoing = true;
        } else if (flag == "--fault-inject") {
            std::string spec = value();
            auto colon = spec.find(':');
            if (colon == std::string::npos)
                usageError("--fault-inject wants workload:kind, got '" +
                           spec + "'");
            std::string workload = spec.substr(0, colon);
            std::string kind = spec.substr(colon + 1);
            // evalMain validates the kind where it builds the
            // RunContext, rejecting unknown kinds with a structured
            // ConfigError naming the valid ones (exit code 2).
            options.run.faultPlan.emplace_back(std::move(workload),
                                               std::move(kind));
        } else if (flag == "--trace") {
            options.tracePath = value();
        } else if (flag == "--sample-cycles") {
            options.run.sampleCycles = static_cast<Cycle>(
                std::strtoull(value().c_str(), nullptr, 10));
        } else if (flag == "--profile") {
            // Bare --profile must not eat the next argument: only the
            // inline =N spelling carries a value.
            options.run.profileTop =
                has_inline ? static_cast<unsigned>(std::strtoul(
                                 inline_value.c_str(), nullptr, 10))
                           : 10;
            if (!options.run.profileTop)
                usageError("--profile wants a positive top-N count");
        } else if (flag == "--trace-cache") {
            options.traceCacheDir = value();
        } else if (flag == "--trace-cache-mb") {
            options.traceCacheMb = static_cast<std::size_t>(
                std::strtoull(value().c_str(), nullptr, 10));
            if (!options.traceCacheMb)
                usageError("--trace-cache-mb wants a positive size");
        } else if (flag == "--sample-mode") {
            // parseMode throws ConfigError on junk; surface it as a
            // usage error here, before any machine is built.
            try {
                options.run.sample.mode =
                    sim::SampleParams::parseMode(value());
            } catch (const ConfigError &error) {
                usageError(error.what());
            }
        } else if (flag == "--sample-insts") {
            options.run.sample.measureInsts =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--sample-warmup") {
            options.run.sample.warmupInsts =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--sample-period") {
            options.run.sample.periodInsts =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--sample-intervals") {
            options.run.sample.intervals =
                std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--sample-confidence") {
            options.run.sample.confidence =
                std::strtod(value().c_str(), nullptr);
        } else if (flag == "--no-replay") {
            options.noReplay = true;
        } else if (flag == "--chaos") {
            options.chaosSpec = value();
        } else if (flag == "--retries") {
            options.retries = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (flag == "--retry-backoff-ms") {
            options.retryBackoffMs = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        } else if (flag == "--resume") {
            std::string path = value();
            if (path.empty())
                usageError("--resume wants a journal path");
            options.resumePath = path;
        } else if (flag == "--workloads") {
            options.workloads =
                splitList(value());
        } else if (flag == "--jobs") {
            sim::SweepRunner::setDefaultJobs(static_cast<unsigned>(
                std::strtoul(value().c_str(),
                             nullptr, 10)));
        } else if (flag == "--format") {
            std::string format = value();
            if (format == "table")
                options.format = Format::Table;
            else if (format == "csv")
                options.format = Format::Csv;
            else if (format == "json")
                options.format = Format::Json;
            else
                usageError("unknown format '" + format +
                           "' (expected table, csv, or json)");
        } else if (flag == "--out") {
            options.outDir = value();
        } else if (flag == "--baseline") {
            options.baselineDir = value();
        } else if (flag == "--tolerance") {
            options.tolerancePct =
                std::strtod(value().c_str(),
                            nullptr);
        } else {
            usageError("unknown flag '" + flag + "'");
        }
    }
    if (options.mode == Mode::None)
        usageError("no mode given");
    return options;
}

/** Resolve requested ids (empty = all) to experiments, canonical
 * order. */
std::vector<const Experiment *>
selectExperiments(const std::vector<std::string> &ids)
{
    auto &registry = ExperimentRegistry::instance();
    if (ids.empty())
        return registry.all();
    std::vector<const Experiment *> out;
    for (const auto &raw : ids) {
        std::string id = raw;
        for (auto &c : id)
            c = static_cast<char>(std::toupper(
                static_cast<unsigned char>(c)));
        out.push_back(&registry.get(id));
    }
    return out;
}

void
validateWorkloads(const std::vector<std::string> &workloads)
{
    auto &registry = workload::WorkloadRegistry::instance();
    for (const auto &name : workloads)
        if (!registry.has(name))
            throw ConfigError(Msg() << "unknown workload '" << name
                                    << "' in --workloads");
}

int
listExperiments()
{
    TextTable table;
    table.addHeader({"id", "title", "variants", "workloads",
                     "baseline", "description"});
    for (const auto *experiment :
         ExperimentRegistry::instance().all()) {
        auto variants = experiment->variants();
        table.addRow({experiment->id, experiment->title,
                      std::to_string(variants.size()),
                      experiment->workloads.empty()
                          ? "suite"
                          : std::to_string(experiment->workloads.size())
                                + " custom",
                      experiment->baseline.empty()
                          ? "-"
                          : experiment->baseline,
                      experiment->description.empty()
                          ? "-"
                          : experiment->description});
    }
    std::cout << table.render();
    std::cout << "\n(run with --run <ids|all>; sim_speed microbenchmarks "
                 "live in bench_sim_speed)\n";
    return 0;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    if (CPE_FAULT_POINT("results.write"))
        throw IoError("chaos: injected fault at results.write");
    std::ofstream out(path);
    if (!out)
        throw IoError(Msg() << "cannot write " << path.string());
    out << text;
    if (!out.flush())
        throw IoError(Msg() << "failed writing " << path.string());
}

void
emitCsv(const Json &doc, bool &header_done)
{
    if (!header_done) {
        std::cout << "experiment,grid,workload,config,ipc\n";
        header_done = true;
    }
    const std::string &id = doc.at("experiment").asString();
    for (const auto &[grid_key, grid] : doc.at("grids").members()) {
        for (const auto &[workload, row] :
             grid.at("ipc", id).members()) {
            for (const auto &[config, ipc] : row.members()) {
                TextTable csv_row;
                csv_row.addRow({id, grid_key, workload, config,
                                Json(ipc.asNumber()).dump()});
                std::cout << csv_row.renderCsv();
            }
        }
    }
}

int
runExperiments(const Options &options, const RunContext &run)
{
    auto experiments = selectExperiments(options.ids);
    validateWorkloads(options.workloads);
    if (!options.outDir.empty())
        std::filesystem::create_directories(options.outDir);

    NullBuffer null_buffer;
    std::ostream null_stream(&null_buffer);
    bool csv_header_done = false;
    unsigned failed_runs = 0;
    std::vector<std::string> failure_summaries;

    for (const auto *experiment : experiments) {
        // Each experiment starts from the old per-binary defaults so
        // a multi-experiment run renders identically to the former
        // standalone binaries.
        setVerbose(true);
        std::ostream &out = options.format == Format::Table
                                ? static_cast<std::ostream &>(std::cout)
                                : null_stream;
        out << "==== " << experiment->id << ": " << experiment->title
            << " ====\n\n";
        Context context(*experiment, out, run, options.workloads,
                        options.keepGoing);
        if (options.keepGoing) {
            // A failed run leaves holes in the grids; an experiment
            // body that trips over one (a missing cell, an absent
            // baseline column) becomes part of the failure report
            // rather than ending the whole evaluation.
            try {
                experiment->run(context);
            } catch (const SimError &error) {
                context.noteBodyError(error);
            }
        } else {
            experiment->run(context);
        }
        failed_runs += context.failedRuns();
        failure_summaries.insert(failure_summaries.end(),
                                 context.failureSummaries().begin(),
                                 context.failureSummaries().end());

        if (options.format == Format::Json)
            std::cout << context.doc().dump(2) << "\n";
        else if (options.format == Format::Csv)
            emitCsv(context.doc(), csv_header_done);
        if (!options.outDir.empty())
            writeFile(std::filesystem::path(options.outDir) /
                          (experiment->id + ".json"),
                      context.doc().dump(2) + "\n");
    }
    setVerbose(true);
    if (failed_runs) {
        // To stderr: --format json/csv callers parse stdout.
        std::cerr << "\nkeep-going: " << failed_runs
                  << " failure(s):\n";
        for (const auto &line : failure_summaries)
            std::cerr << "  " << line << "\n";
        return ExitRunFailure;
    }
    return ExitOk;
}

/** The workload list an experiment's primary grid would use. */
std::vector<std::string>
primaryWorkloads(const Experiment &experiment, const Options &options)
{
    if (!options.workloads.empty())
        return options.workloads;
    if (!experiment.workloads.empty())
        return experiment.workloads;
    return workload::WorkloadRegistry::evaluationSuite();
}

int
validateExperiments(const Options &options, const RunContext &run)
{
    auto experiments = selectExperiments(options.ids);
    validateWorkloads(options.workloads);

    TextTable table;
    table.addHeader({"experiment", "workload", "config", "field",
                     "problem"});
    unsigned diagnostics = 0;
    unsigned configs_checked = 0;
    for (const auto *experiment : experiments) {
        auto configs = suiteConfigs(
            experiment->variants(), primaryWorkloads(*experiment, options),
            run);
        for (const auto &config : configs) {
            ++configs_checked;
            for (const auto &diagnostic : config.validate()) {
                table.addRow({experiment->id, config.workloadName,
                              config.tag(), diagnostic.field,
                              diagnostic.message});
                ++diagnostics;
            }
        }
    }
    if (diagnostics) {
        std::cout << table.render();
        std::cout << "\nvalidate: FAIL — " << diagnostics
                  << " problem(s) across " << configs_checked
                  << " config(s)\n";
        return ExitConfigError;
    }
    std::cout << "validate: OK — " << configs_checked
              << " config(s) across " << experiments.size()
              << " experiment(s)\n";
    return ExitOk;
}

/** The grid the regression gate replays: an experiment's primary
 * variants over an explicit workload list, minus any gate-excluded
 * columns (CI-bearing sampled estimates drift with sampling noise, so
 * a drift gate over them would only measure the sampler). */
sim::ResultGrid
runPrimaryGrid(const Experiment &experiment,
               const std::vector<std::string> &workloads,
               const RunContext &run)
{
    VerboseScope quiet(false);
    auto variants = experiment.variants();
    if (!experiment.gateExclude.empty())
        std::erase_if(variants, [&](const Variant &variant) {
            return std::find(experiment.gateExclude.begin(),
                             experiment.gateExclude.end(),
                             variant.label) !=
                   experiment.gateExclude.end();
        });
    return sim::SweepRunner().runGrid(
        suiteConfigs(variants, workloads, run));
}

std::vector<std::string>
baselineWorkloads(const Experiment &experiment,
                  const std::vector<std::string> &override_list)
{
    if (!override_list.empty())
        return override_list;
    if (!experiment.workloads.empty())
        return experiment.workloads;
    return reducedSuite();
}

int
writeBaselines(const Options &options, const RunContext &run)
{
    auto experiments = selectExperiments(options.ids);
    validateWorkloads(options.workloads);
    std::filesystem::create_directories(options.baselineDir);
    for (const auto *experiment : experiments) {
        auto workloads =
            baselineWorkloads(*experiment, options.workloads);
        sim::ResultGrid grid =
            runPrimaryGrid(*experiment, workloads, run);
        Json grid_json = grid.toJson();
        Json doc = Json::object();
        doc["experiment"] = experiment->id;
        doc["schema"] = 1;
        doc["title"] = experiment->title;
        doc["workloads"] = grid_json.at("workloads");
        doc["configs"] = grid_json.at("configs");
        doc["geomean_ipc"] = grid_json.at("geomean_ipc");
        doc["ipc"] = grid_json.at("ipc");
        auto path = std::filesystem::path(options.baselineDir) /
                    (experiment->id + ".json");
        writeFile(path, doc.dump(2) + "\n");
        std::cout << "wrote " << path.string() << "\n";
    }
    return 0;
}

int
checkBaselines(const Options &options, const RunContext &run)
{
    if (options.baselineDir.empty())
        usageError("--check needs --baseline DIR");
    auto experiments = selectExperiments(options.ids);

    std::vector<std::vector<std::string>> report;
    unsigned failures = 0;
    unsigned configs_checked = 0;
    for (const auto *experiment : experiments) {
        Json baseline =
            loadBaseline(options.baselineDir, experiment->id);
        failures += checkExperiment(experiment->id, baseline,
                                    options.tolerancePct, report, run);
        configs_checked += static_cast<unsigned>(
            baseline.at("geomean_ipc").members().size());
    }

    TextTable table;
    table.addHeader({"experiment", "config", "baseline", "current",
                     "drift", "status"});
    for (const auto &row : report)
        table.addRow(row);
    std::cout << table.render();
    if (failures) {
        std::cout << "\nregression gate: FAIL — " << failures
                  << " config(s) drifted beyond "
                  << TextTable::num(options.tolerancePct, 2)
                  << "% (refresh intentional changes with "
                     "--write-baseline)\n";
        return ExitBaselineDrift;
    }
    std::cout << "\nregression gate: PASS — " << experiments.size()
              << " experiment(s), " << configs_checked
              << " config geomeans within "
              << TextTable::num(options.tolerancePct, 2) << "%\n";
    return ExitOk;
}

} // namespace

const std::vector<std::string> &
reducedSuite()
{
    static const std::vector<std::string> suite = {"compress", "matmul",
                                                   "copy"};
    return suite;
}

Json
loadBaseline(const std::string &dir, const std::string &id)
{
    auto path = std::filesystem::path(dir) / (id + ".json");
    if (CPE_FAULT_POINT("baseline.read"))
        throw IoError("chaos: injected fault at baseline.read");
    std::ifstream in(path);
    if (!in)
        throw IoError(Msg()
                      << "no baseline for experiment " << id << " at "
                      << path.string()
                      << " (record one with cpe_eval --write-baseline)");
    std::ostringstream text;
    text << in.rdbuf();
    Json doc = Json::parse(text.str(), "baseline " + path.string());
    const std::string &doc_id =
        doc.at("experiment", path.string()).asString();
    if (doc_id != id)
        throw ConfigError(Msg() << "baseline " << path.string()
                                << " is for '" << doc_id << "', not '"
                                << id << "'");
    return doc;
}

unsigned
checkExperiment(const std::string &id, const Json &baseline,
                double tolerance_pct,
                std::vector<std::vector<std::string>> &report,
                const RunContext &run)
{
    const Experiment &experiment =
        ExperimentRegistry::instance().get(id);
    std::vector<std::string> workloads;
    for (const auto &workload :
         baseline.at("workloads", "baseline " + id).items())
        workloads.push_back(workload.asString());
    if (workloads.empty())
        throw ConfigError(Msg() << "baseline " << id
                                << " lists no workloads");

    sim::ResultGrid grid = runPrimaryGrid(experiment, workloads, run);

    unsigned failures = 0;
    const auto &base_geomeans =
        baseline.at("geomean_ipc", "baseline " + id);
    for (const auto &[config, base_value] : base_geomeans.members()) {
        const auto &configs = grid.configs();
        bool present = std::find(configs.begin(), configs.end(),
                                 config) != configs.end();
        if (!present) {
            report.push_back({id, config,
                              TextTable::num(base_value.asNumber()),
                              "-", "-", "MISSING"});
            ++failures;
            continue;
        }
        double base = base_value.asNumber();
        double current = grid.geomeanIpc(config);
        double drift_pct =
            base != 0.0 ? 100.0 * (current - base) / base : 0.0;
        bool ok = std::abs(drift_pct) <= tolerance_pct;
        report.push_back(
            {id, config, TextTable::num(base), TextTable::num(current),
             TextTable::num(drift_pct, 2) + "%", ok ? "ok" : "FAIL"});
        if (!ok)
            ++failures;
    }
    // New columns the baseline has never seen are also drift: the
    // gate's contract is "this grid, exactly".
    for (const auto &config : grid.configs()) {
        if (!base_geomeans.find(config)) {
            report.push_back({id, config, "-",
                              TextTable::num(grid.geomeanIpc(config)),
                              "-", "NEW"});
            ++failures;
        }
    }
    // Gate-excluded columns are visible but never counted: the report
    // says the gate chose to skip them rather than silently narrowing.
    for (const auto &label : experiment.gateExclude)
        report.push_back({id, label, "-", "-", "-", "SKIP"});
    return failures;
}

int
evalMain(int argc, char **argv)
{
    Options options = parseArgs(argc, argv);
    if (options.noReplay && !options.traceCacheDir.empty())
        usageError("--no-replay and --trace-cache are contradictory");
    // The CLI boundary: everything below throws SimError for
    // recoverable failures; only here do they become an exit code
    // (ConfigError -> 2, everything else -> 1; see kUsage).
    try {
        // The one value every config this invocation builds is layered
        // with.  Unknown fault kinds are rejected here, before any
        // run, with a structured error — not deep in a sweep where a
        // typo would silently inject nothing.
        RunContext run = options.run;
        for (const auto &[workload, kind] : run.faultPlan)
            if (kind != "config" && kind != "hang")
                throw ConfigError("unknown fault-injection kind '" +
                                  kind + "' for workload '" + workload +
                                  "' (valid kinds: config, hang)");
        // Chaos arms (or explicitly disarms — evalMain may be called
        // repeatedly in-process by the tests) before any run starts.
        if (options.chaosSpec.empty()) {
            util::FaultInjector::instance().disarm();
        } else {
            util::FaultInjector::instance().arm(
                util::ChaosSpec::parse(options.chaosSpec));
        }
        // Retry policy for every sweep this invocation runs: N retries
        // on top of the first attempt, exponential backoff from the
        // base delay.
        util::RetryPolicy retry_policy;
        retry_policy.maxAttempts = options.retries + 1;
        retry_policy.backoffBaseMs = options.retryBackoffMs;
        sim::SweepRunner::setDefaultRetryPolicy(retry_policy);
        // One shared sink for the whole invocation: concurrent sweep
        // runs interleave whole event batches, each line tagged with
        // its run id.
        std::unique_ptr<obs::FileTraceSink> trace_sink;
        if (!options.tracePath.empty())
            trace_sink =
                std::make_unique<obs::FileTraceSink>(options.tracePath);
        run.traceSink = trace_sink.get();
        // Execute-once/replay-many, on by default: one shared cache
        // for the invocation means each grid runs its functional model
        // once per workload and every timing variant replays the
        // capture (byte-identical results, see DESIGN.md).
        std::unique_ptr<sim::TraceCache> trace_cache;
        if (!options.noReplay)
            trace_cache = std::make_unique<sim::TraceCache>(
                options.traceCacheDir,
                options.traceCacheMb * 1024 * 1024);
        run.traceCache = trace_cache.get();
        // Crash-safe resume: load the journal (skipping any torn
        // trailing line a killed process left) and let the sweep
        // runner serve completed runs from it.
        std::unique_ptr<sim::RunJournal> journal;
        std::size_t journaled_before = 0;
        std::uint64_t append_failures_before = 0;
        if (!options.resumePath.empty()) {
            journal =
                std::make_unique<sim::RunJournal>(options.resumePath);
            journaled_before = journal->entries();
            append_failures_before =
                obs::MetricsRegistry::instance()
                    .counter("sweep.journal_append_failures")
                    ->value();
        }
        sim::RunJournal::setActive(journal.get());

        int rc = ExitRunFailure;
        switch (options.mode) {
          case Mode::List:
            rc = listExperiments();
            break;
          case Mode::Run:
            rc = runExperiments(options, run);
            break;
          case Mode::Check:
            rc = checkBaselines(options, run);
            break;
          case Mode::WriteBaseline:
            rc = writeBaselines(options, run);
            break;
          case Mode::Validate:
            rc = validateExperiments(options, run);
            break;
          case Mode::None:
            sim::RunJournal::setActive(nullptr);
            usageError("no mode given");
        }
        sim::RunJournal::setActive(nullptr);
        if (journal) {
            // To stderr: --format json/csv callers parse stdout.
            const std::uint64_t append_failures =
                obs::MetricsRegistry::instance()
                    .counter("sweep.journal_append_failures")
                    ->value() -
                append_failures_before;
            std::cerr << "resume: " << journaled_before
                      << " run(s) served from " << journal->path()
                      << ", "
                      << (journal->entries() - journaled_before)
                      << " appended";
            if (append_failures > 0)
                std::cerr << ", " << append_failures
                          << " append failure(s)";
            std::cerr << "\n";
        }
        return rc;
    } catch (const ConfigError &error) {
        std::cerr << "cpe_eval: " << error.kind()
                  << " error: " << error.what() << "\n";
        sim::RunJournal::setActive(nullptr);
        return ExitConfigError;
    } catch (const SimError &error) {
        std::cerr << "cpe_eval: " << error.kind() << " error: "
                  << error.what() << "\n";
        sim::RunJournal::setActive(nullptr);
        return ExitRunFailure;
    }
}

} // namespace cpe::exp
