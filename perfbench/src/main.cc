/**
 * @file
 * felix-perfbench: run one benchmark workload and print its result.
 *
 *   felix-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * The last line of standard output is the result object
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}; with
 * --trace 0 it holds the end-to-end metrics, with --trace 1 the
 * per-layer metrics of a traced run. Failed checks are listed on
 * standard error. Scratch files (cost-model cache, tuning records,
 * round log) go to a fresh directory under .perfbench_runs in the
 * working directory, removed at exit.
 */
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.h"
#include "support/logging.h"
#include "workloads.h"

namespace {

const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

int
usage(const std::string &why)
{
    std::cerr << "felix-perfbench: " << why << "\n"
              << "usage: felix-perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
              << "workloads:";
    for (const std::string &name : perfbench::workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions options;
    const std::string runRoot = ".perfbench_runs";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc)
                return usage("missing value for " + flag);
            const std::string value = argv[++i];
            if (flag == "--workload") {
                options.workload = value;
                haveWorkload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
                haveSeed = true;
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
                haveSeconds = options.seconds > 0.0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                options.trace = value == "1";
                haveTrace = true;
            } else {
                return usage("unknown flag " + flag);
            }
        }
    } catch (const std::exception &) {
        return usage("malformed number");
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds > 0 and --trace are "
                     "required");
    bool known = false;
    for (const std::string &name : perfbench::workloadNames())
        known = known || name == options.workload;
    if (!known)
        return usage("unknown workload " + options.workload);

    felix::setLogLevel(felix::LogLevel::Warn);
    namespace fs = std::filesystem;
    options.runDir = (fs::path(runRoot) /
                      (options.workload + "-" + std::to_string(getpid())))
                         .string();
    std::error_code ec;
    fs::remove_all(options.runDir, ec);
    fs::create_directories(options.runDir, ec);
    if (ec) {
        std::cerr << "felix-perfbench: cannot create " << options.runDir
                  << ": " << ec.message() << "\n";
        return 1;
    }

    int status = 0;
    try {
        const perfbench::RunResult result =
            perfbench::runWorkload(options, kProcessStart);
        for (const std::string &error : result.errors)
            std::cerr << "felix-perfbench: check failed: " << error << "\n";
        for (const std::string &failure : result.failures)
            std::cerr << "felix-perfbench: failed operation: " << failure
                      << "\n";
        std::cout << perfbench::resultJson(result.errors.empty(),
                                           result.attempted, result.failed,
                                           result.metrics)
                  << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "felix-perfbench: " << e.what() << "\n";
        status = 1;
    }
    fs::remove_all(options.runDir, ec);
    fs::remove(runRoot, ec);   // only when no other run is using it
    return status;
}
