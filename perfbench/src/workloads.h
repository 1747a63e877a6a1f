/**
 * @file
 * The benchmark's workloads (README.md has why each was chosen).
 *
 *  - felix_resnet50 / ansor_resnet50: tune ResNet-50 (batch 1) to a
 *    fixed virtual budget at one worker thread with Felix's gradient
 *    search or the Ansor-TenSet evolutionary baseline, then serve the
 *    tuned schedules from a session warm-started with them.
 *  - serve_mixed: replay a seeded request trace against a fresh
 *    serving session at two worker threads.
 *
 * Untraced runs report the end-to-end metrics. Traced runs time the
 * calls into each layer from the benchmark's own code and report the
 * per-layer metrics.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "report.h"
#include "tuner/tuner.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory of this run (cost-model cache, records). */
    std::string runDir;
};

struct RunResult
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
    /** Why a check failed, one line each; empty when all passed. */
    std::vector<std::string> errors;
    /** What the failed operations did wrong, one line each. */
    std::set<std::string> failures;
};

/** Names accepted by runWorkload. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload. @p process_start anchors setup_s and the traced
 * run's unattributed time.
 */
RunResult runWorkload(const RunOptions &options,
                      Clock::time_point process_start);

/** A task's final schedule and its recorded latency. */
struct TaskBest
{
    int sketchIndex = 0;
    std::vector<double> x;
    double latencySec = 0.0;

    bool operator==(const TaskBest &other) const = default;
};

/** Wall time of a tune's rounds. */
struct TuneTiming
{
    double sec = 0.0;
    std::vector<double> roundMs;
};

/**
 * Tune to @p budget_sec through GraphTuner, one round per call, so the
 * loop is GraphTuner::tuneUntil's. @p timing (when non-null) receives
 * the rounds' wall time. Returns the bests.
 */
std::vector<TaskBest> tuneToBudget(felix::tuner::GraphTuner &tuner,
                                   double budget_sec,
                                   TuneTiming *timing = nullptr);

/**
 * Run every schedule check on a tuned network: legality,
 * re-measurement and no worse than all-ones. Appends failures to
 * @p errors.
 */
void checkTunedNetwork(const std::vector<felix::graph::Task> &tasks,
                       const std::vector<TaskBest> &bests,
                       uint64_t noise_seed,
                       std::vector<std::string> &errors);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
