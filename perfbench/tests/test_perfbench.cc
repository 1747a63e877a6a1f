// Tests of the benchmark itself: every output check must reject a
// corrupted output it is meant to catch, and the schedules a tune
// produces must not depend on the worker count or the batched engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <filesystem>
#include <memory>
#include <string>

#include "checks.h"
#include "core/felix.h"
#include "costmodel/dataset.h"
#include "models/models.h"
#include "serve/server.h"
#include "serve_trace.h"
#include "sim/device.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "support/parallel.h"
#include "workloads.h"

namespace {

using namespace felix;

const sim::DeviceConfig &
a5000()
{
    return sim::deviceConfig(sim::DeviceKind::A5000);
}

/** A small pretrained model, built once per test binary. */
const costmodel::CostModel &
smallModel()
{
    static const costmodel::CostModel model = [] {
        const std::string dir = "perfbench_test_model";
        std::filesystem::remove_all(dir);
        costmodel::DatasetOptions options;
        options.numSubgraphs = 12;
        options.schedulesPerSketch = 24;
        costmodel::CostModel fit = costmodel::pretrainedCostModel(
            sim::DeviceKind::A5000, dir, options);
        std::filesystem::remove_all(dir);
        return fit;
    }();
    return model;
}

/** The first ResNet-50 task with a multi-variable split group. */
graph::Task
tiledTask()
{
    for (const graph::Task &task :
         extractSubgraphs(models::resnet50(1))) {
        const auto sketches = sketch::generateSketches(task.subgraph);
        for (const auto &group : sketches.front().groups) {
            if (group.extent >= 8 && !group.varIndices.empty())
                return task;
        }
    }
    ADD_FAILURE() << "no tiled task in resnet50";
    return {};
}

TEST(PerfbenchChecks, LegalityRejectsNonDividingTileFactor)
{
    const graph::Task task = tiledTask();
    const auto sketches = sketch::generateSketches(task.subgraph);
    const auto &sched = sketches.front();
    Rng rng(7);
    std::vector<double> x = sketch::sampleValid(sched, rng);
    ASSERT_EQ(perfbench::checkLegal(task.subgraph, 0, x), "");

    // Set one tile factor of a split group to a value that does not
    // divide the group's extent.
    bool corrupted = false;
    for (const auto &group : sched.groups) {
        if (group.varIndices.empty())
            continue;
        const int var = group.varIndices.front();
        for (int64_t v = 2; v <= group.extent && !corrupted; ++v) {
            if (group.extent % v != 0) {
                x[var] = static_cast<double>(v);
                corrupted = true;
            }
        }
        if (corrupted)
            break;
    }
    ASSERT_TRUE(corrupted);
    EXPECT_NE(perfbench::checkLegal(task.subgraph, 0, x), "");
}

TEST(PerfbenchChecks, LegalityRejectsNonPowerOfTwoVectorWidth)
{
    // A vector width of 3 divides an elementwise extent that 3 divides,
    // but the sketch declares the width a power of two.
    bool corrupted = false;
    for (const graph::Task &task : extractSubgraphs(models::vitB32(1))) {
        const auto sketches = sketch::generateSketches(task.subgraph);
        const auto &sched = sketches.front();
        for (const auto &group : sched.groups) {
            for (int var : group.varIndices) {
                if (corrupted || !sched.vars[var].powerOfTwo ||
                    group.extent % 3 != 0 || sched.vars[var].hi < 3)
                    continue;
                std::vector<double> x(sched.vars.size(), 1.0);
                ASSERT_EQ(perfbench::checkLegal(task.subgraph, 0, x), "");
                x[var] = 3.0;
                EXPECT_NE(perfbench::checkLegal(task.subgraph, 0, x), "");
                // Without the power-of-two rule the width passes, and
                // the next check (a made-up latency) is what fails.
                const std::string unchecked = perfbench::checkTunedTask(
                    task.subgraph, 0, x, 1.0, a5000(), 5, false);
                EXPECT_NE(unchecked, "");
                EXPECT_EQ(unchecked.find("power of two"), std::string::npos)
                    << unchecked;
                corrupted = true;
            }
        }
    }
    ASSERT_TRUE(corrupted);
}

TEST(PerfbenchChecks, RemeasureRejectsLatencyBeyondNoiseBand)
{
    const graph::Task task = tiledTask();
    const auto sketches = sketch::generateSketches(task.subgraph);
    const std::vector<double> ones(sketches.front().vars.size(), 1.0);
    const double recorded =
        perfbench::remeasure(task.subgraph, 0, ones, a5000(), 11);
    ASSERT_GT(recorded, 0.0);
    EXPECT_EQ(perfbench::checkTunedTask(task.subgraph, 0, ones, recorded,
                                        a5000(), 99),
              "");
    EXPECT_NE(perfbench::checkTunedTask(task.subgraph, 0, ones,
                                        recorded * 1.5, a5000(), 99),
              "");
    EXPECT_NE(perfbench::checkTunedTask(task.subgraph, 0, ones,
                                        recorded / 1.5, a5000(), 99),
              "");
}

TEST(PerfbenchChecks, NotWorseRejectsRegression)
{
    EXPECT_EQ(perfbench::checkNotWorse(1.0e-3, 2.0e-3), "");
    EXPECT_NE(perfbench::checkNotWorse(3.0e-3, 2.0e-3), "");
}

TEST(PerfbenchChecks, ServeCheckRejectsDroppedTaskAndFalseMiss)
{
    serve::ServeOptions options;
    serve::ServeSession session(options, smallModel());
    const auto tasks = extractSubgraphs(models::dcgan(1));
    ASSERT_GT(tasks.size(), 1u);
    const std::string line =
        "{\"op\":\"tune\",\"network\":\"dcgan\",\"batch\":1}";
    const double overhead = tuner::TunerOptions().graphExecOverheadSec;

    const std::string miss = session.handle(line);
    const std::string hit = session.handle(line);
    {
        perfbench::ServeChecker checker(overhead);
        EXPECT_EQ(checker.checkTune("dcgan/b1", tasks, miss), "");
        EXPECT_EQ(checker.checkTune("dcgan/b1", tasks, hit), "");
    }
    {
        // The last task answer dropped from the miss response.
        const size_t cut = miss.rfind(",{\"label\"");
        ASSERT_NE(cut, std::string::npos);
        const std::string dropped = miss.substr(0, cut) + "]}";
        perfbench::ServeChecker checker(overhead);
        EXPECT_NE(checker.checkTune("dcgan/b1", tasks, dropped), "");
    }
    {
        // A repeat request of known subgraphs reported as one miss.
        std::string falseMiss = hit;
        const std::string misses = "\"cache_misses\":0";
        const size_t at = falseMiss.find(misses);
        ASSERT_NE(at, std::string::npos);
        falseMiss.replace(at, misses.size(), "\"cache_misses\":1");
        const std::string hits =
            "\"cache_hits\":" + std::to_string(tasks.size());
        const size_t hitAt = falseMiss.find(hits);
        ASSERT_NE(hitAt, std::string::npos);
        falseMiss.replace(hitAt, hits.size(),
                          "\"cache_hits\":" +
                              std::to_string(tasks.size() - 1));
        perfbench::ServeChecker checker(overhead);
        ASSERT_EQ(checker.checkTune("dcgan/b1", tasks, miss), "");
        EXPECT_NE(checker.checkTune("dcgan/b1", tasks, falseMiss), "");
    }
}

/** Tune requests before each rounds request of a trace. */
std::vector<int>
tunesBeforeRounds(const std::vector<perfbench::TraceRequest> &trace)
{
    std::vector<int> positions;
    int tunes = 0;
    for (const perfbench::TraceRequest &request : trace) {
        if (request.rounds)
            positions.push_back(tunes);
        else
            ++tunes;
    }
    return positions;
}

TEST(PerfbenchTrace, RoundsSpreadOverTheWholeTrace)
{
    const auto trace = perfbench::makeServeTrace(3);
    const std::vector<int> positions = tunesBeforeRounds(trace);
    ASSERT_EQ(positions.size(),
              static_cast<size_t>(perfbench::kRoundRequests));
    const int misses = static_cast<int>(perfbench::serveVariants().size());
    EXPECT_EQ(positions.front(), misses);
    // The hits between two rounds requests, and after the last one,
    // differ in number by at most one.
    int fewest = INT_MAX, most = 0;
    for (size_t i = 0; i < positions.size(); ++i) {
        const int next = i + 1 < positions.size() ? positions[i + 1]
                                                  : perfbench::kTuneRequests;
        fewest = std::min(fewest, next - positions[i]);
        most = std::max(most, next - positions[i]);
    }
    EXPECT_LE(most - fewest, 1);
}

TEST(PerfbenchTrace, SeedShufflesOnlyBetweenRoundsRequests)
{
    const auto a = perfbench::makeServeTrace(3);
    const auto b = perfbench::makeServeTrace(4);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(tunesBeforeRounds(a), tunesBeforeRounds(b));
    bool differ = false;
    std::vector<int> blockA, blockB;
    for (size_t i = 0; i <= a.size(); ++i) {
        if (i == a.size() || a[i].rounds) {
            std::sort(blockA.begin(), blockA.end());
            std::sort(blockB.begin(), blockB.end());
            EXPECT_EQ(blockA, blockB) << "block ending at " << i;
            blockA.clear();
            blockB.clear();
            continue;
        }
        blockA.push_back(a[i].variant);
        blockB.push_back(b[i].variant);
        differ = differ || a[i].variant != b[i].variant;
    }
    EXPECT_TRUE(differ);
}

/** Tune ResNet-50 to a short budget and return its schedules. */
std::vector<perfbench::TaskBest>
shortTune(int jobs, bool use_batch)
{
    tuner::TunerOptions options;
    options.seed = 5;
    options.numThreads = jobs;
    options.grad.useBatch = use_batch;
    tuner::GraphTuner graphTuner(extractSubgraphs(models::resnet50(1)),
                                 smallModel(), sim::DeviceKind::A5000,
                                 options);
    auto bests = perfbench::tuneToBudget(graphTuner, 40.0);
    setGlobalJobs(1);
    return bests;
}

TEST(PerfbenchDeterminism, SchedulesIndependentOfJobsAndEngine)
{
    const auto reference = shortTune(1, true);
    EXPECT_EQ(shortTune(4, true), reference) << "--jobs 4";
    EXPECT_EQ(shortTune(1, false), reference) << "scalar oracle";
    std::vector<std::string> errors;
    perfbench::checkTunedNetwork(extractSubgraphs(models::resnet50(1)),
                                 reference, 3, errors);
    EXPECT_TRUE(errors.empty()) << errors.front();
}

} // namespace
