#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "checks.h"
#include "core/felix.h"
#include "expr/compiled.h"
#include "features/features.h"
#include "models/models.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rewrite/smoothing.h"
#include "rewrite/transforms.h"
#include "serve/server.h"
#include "serve_trace.h"
#include "shard/checkpoint.h"
#include "sim/device.h"
#include "sketch/sketch.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tuner/records.h"

namespace perfbench {

using felix::concat;
namespace costmodel = felix::costmodel;
namespace graph = felix::graph;
namespace optim = felix::optim;
namespace serve = felix::serve;
namespace tuner = felix::tuner;

namespace {

constexpr felix::sim::DeviceKind kDevice = felix::sim::DeviceKind::A5000;
/** The tune workloads' virtual tuning budget, seconds. */
constexpr double kTuneBudgetSec = 600.0;
/** Worker threads: the tune workloads are the ROADMAP's --jobs 1
 *  headline; serving runs a pool larger than one. */
constexpr int kTuneJobs = 1;
constexpr int kServeJobs = 2;
/** The serving daemon's own seed (a deployment setting, fixed); the
 *  workload seed varies the request trace. */
constexpr uint64_t kServeTunerSeed = 1;
/** Hit requests the traced tune workloads send to the warm session. */
constexpr int kTunedServeHits = 1100;

const felix::Device &
device()
{
    static const felix::Device a5000 = felix::Device::cuda("a5000");
    return a5000;
}

graph::Graph
buildNetwork(const Variant &variant)
{
    const std::string &name = variant.network;
    const int batch = variant.batch;
    if (name == "resnet50")
        return felix::models::resnet50(batch);
    if (name == "mobilenet_v2")
        return felix::models::mobilenetV2(batch);
    if (name == "vit_b32")
        return felix::models::vitB32(batch);
    if (name == "r3d_18")
        return felix::models::r3d18(batch);
    if (name == "dcgan")
        return felix::models::dcgan(batch);
    if (name == "llama")
        return felix::models::llama(batch);
    felix::fatal("perfbench: no builder for network " + name);
}

/** Counter values of the program's metrics registry. */
std::map<std::string, double>
counters()
{
    return felix::obs::MetricsRegistry::instance().snapshot().counters;
}

double
delta(const std::map<std::string, double> &before,
      const std::map<std::string, double> &after, const std::string &name)
{
    auto b = before.find(name);
    auto a = after.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
fail(RunResult &result, const std::string &why)
{
    result.errors.push_back(why);
}

/** Best schedule of every task of a tuner, in task order. */
std::vector<TaskBest>
bestsOf(const tuner::GraphTuner &graph_tuner)
{
    std::vector<TaskBest> bests;
    for (const tuner::TaskRecord &record : graph_tuner.taskRecords()) {
        bests.push_back({record.bestCandidate.sketchIndex,
                         record.bestCandidate.x, record.bestLatencySec});
    }
    return bests;
}

/** Pretrain into the empty @p cache_dir, then reload from it. */
costmodel::CostModel
coldCostModel(const std::string &cache_dir, SpanRecorder *spans)
{
    // A cold pretrain returns the freshly fit model, whose rng and Adam
    // state differ from what every later run reloads from the cache;
    // tuning with the reload keeps every run on the same trajectory.
    {
        ScopedSpan span(spans, "costmodel.pretrain");
        (void)felix::pretrainedCostModel(device(), cache_dir);
    }
    ScopedSpan span(spans, "costmodel.load");
    return felix::pretrainedCostModel(device(), cache_dir);
}

// ----- Search-space layers -------------------------------------------

/**
 * Time the search-space layers on @p tasks by calling each layer's
 * public function the way GradientSearch's constructor composes them:
 * sketches, exact feature formulas, the smoothing + log/exp rewrite of
 * the objective, and the compile of both tapes.
 */
void
timeSearchSpaceLayers(const std::vector<graph::Task> &tasks,
                      SpanRecorder &spans)
{
    const optim::GradSearchOptions options;
    for (const graph::Task &task : tasks) {
        std::vector<felix::sketch::SymbolicSchedule> sketches;
        {
            ScopedSpan span(&spans, "sketch.generate");
            sketches = felix::sketch::generateSketches(
                task.subgraph, options.sketchOptions);
        }
        for (const auto &sched : sketches) {
            std::vector<std::string> names;
            for (const auto &domain : sched.vars)
                names.push_back(domain.name);
            std::vector<felix::expr::Expr> raw;
            {
                ScopedSpan span(&spans, "features.extract");
                raw = felix::features::extractFeatures(sched.program);
            }
            std::vector<felix::expr::Expr> objective;
            {
                ScopedSpan span(&spans, "rewrite.smooth");
                namespace rw = felix::rewrite;
                for (const auto &f : raw) {
                    objective.push_back(rw::smoothMax0(
                        rw::expSubstituteVars(
                            rw::logExpand(rw::makeSmooth(f, options.kernel)),
                            names),
                        options.kernel));
                }
                for (const auto &g : sched.constraints) {
                    objective.push_back(rw::expSubstituteVars(
                        rw::makeSmooth(g, options.kernel), names));
                }
            }
            ScopedSpan span(&spans, "expr.compile");
            felix::expr::CompiledExprs rawTape(raw, names,
                                               /*forward_only=*/true);
            felix::expr::CompiledExprs objectiveTape(objective, names);
        }
    }
}

// ----- Serving -------------------------------------------------------

/** What one serving phase saw. */
struct ServeStats
{
    std::vector<double> hitUs;
    std::vector<double> missMs;
    std::vector<double> roundMs;
    double sec = 0.0;
    int64_t requests = 0;
    int64_t failed = 0;
    double lookups = 0.0;
    double lookupHits = 0.0;
    /** Last served end-to-end latency per variant key, seconds. */
    std::map<std::string, double> lastLatency;
    /** FNV-1a of each response, in order (replay determinism). */
    std::vector<uint64_t> responseHashes;
    /** Last answer per subgraph hash, with the subgraph it answers. */
    std::unordered_map<uint64_t, std::pair<const graph::Task *, ServedTask>>
        answers;
};

/**
 * Send @p line to @p session as the closed-loop client, time it, and
 * check the response. @p tasks is the benchmark's own extraction of
 * the requested variant (null for a rounds request).
 */
void
sendRequest(serve::ServeSession &session, const std::string &line,
            const std::string &variant,
            const std::vector<graph::Task> *tasks, ServeChecker &checker,
            ServeStats &stats, SpanRecorder *spans, RunResult &result)
{
    const Clock::time_point start = Clock::now();
    std::string response;
    {
        ScopedSpan span(spans, tasks ? "serve.tune" : "serve.rounds");
        response = session.handle(line);
    }
    const double sec = secondsSince(start);
    ++stats.requests;
    stats.responseHashes.push_back(felix::shard::fnv1a(response));
    if (response.find("\"type\":\"error\"") != std::string::npos) {
        ++stats.failed;
        return;
    }
    if (!tasks) {
        auto json = felix::obs::parseJson(response);
        if (!json || json->stringOr("type", "") != "rounds" ||
            json->numberOr("ran", 0.0) != 1.0)
            fail(result, concat("rounds request not answered with one "
                                "round: ",
                                response.substr(0, 120)));
        stats.roundMs.push_back(sec * 1e3);
        return;
    }
    std::vector<ServedTask> answers;
    const std::string why =
        checker.checkTune(variant, *tasks, response, &answers);
    if (!why.empty()) {
        fail(result, why);
        return;
    }
    int misses = 0;
    for (size_t i = 0; i < answers.size(); ++i) {
        misses += answers[i].cached ? 0 : 1;
        stats.answers[answers[i].hash] = {&(*tasks)[i], answers[i]};
    }
    stats.lookups += static_cast<double>(answers.size());
    stats.lookupHits += static_cast<double>(answers.size() - misses);
    if (misses > 0)
        stats.missMs.push_back(sec * 1e3);
    else
        stats.hitUs.push_back(sec * 1e6);
}

/**
 * Legality and re-measurement of every subgraph's last answer. The
 * subgraphs in @p probe_failed failed the rounding probe, which counts
 * their power-of-two fault once per pass; their answers are checked
 * without that rule, and an answer that breaks it is described with
 * the failed operation.
 */
void
checkServedSchedules(const ServeStats &stats, uint64_t seed,
                     const std::unordered_set<uint64_t> &probe_failed,
                     RunResult &result)
{
    const auto &deviceConfig = felix::sim::deviceConfig(kDevice);
    for (const auto &[hash, entry] : stats.answers) {
        const ServedTask &answer = entry.second;
        const std::string &label = entry.first->exampleLabel;
        const bool faulty = probe_failed.count(hash) > 0;
        const std::string why = checkTunedTask(
            entry.first->subgraph, answer.sketchIndex, answer.vars,
            answer.latencySec, deviceConfig, felix::hashCombine(seed, hash),
            !faulty);
        if (!why.empty())
            fail(result, concat(label, ": ", why));
        if (faulty) {
            const std::string served =
                checkLegal(entry.first->subgraph, answer.sketchIndex,
                           answer.vars);
            if (!served.empty())
                result.failures.insert(concat(label, ": served ", served));
        }
    }
}

/**
 * A serving session warm-started with a tune's schedules (the
 * felix-tune --save-records, felix-serve --records deployment). It
 * answers the tuned network, ResNet-50 at batch 1, from the cache;
 * every other batch size has new shapes, so its first request is a
 * miss.
 */
class TunedServer
{
  public:
    TunedServer(const std::vector<graph::Task> &tasks,
                const std::vector<TaskBest> &bests,
                const costmodel::CostModel &model, const RunOptions &options,
                SpanRecorder *spans, RunResult &result)
        : spans_(spans), result_(result),
          checker_(tuner::TunerOptions().graphExecOverheadSec)
    {
        std::vector<tuner::TuneRecord> records;
        for (size_t i = 0; i < tasks.size(); ++i) {
            tuner::TuneRecord record;
            record.taskHash = tasks[i].subgraph.structuralHash();
            record.taskLabel = tasks[i].exampleLabel;
            record.sketchIndex = bests[i].sketchIndex;
            record.scheduleVars = bests[i].x;
            record.latencySec = bests[i].latencySec;
            checker_.markKnown(record.taskHash);
            records.push_back(std::move(record));
        }
        serve::ServeOptions serveOptions;
        serveOptions.recordsPath = options.runDir + "/tuned.records";
        serveOptions.tuner.numThreads = kTuneJobs;
        serveOptions.tuner.seed = options.seed;
        std::filesystem::remove(serveOptions.recordsPath);
        tuner::appendRecords(serveOptions.recordsPath, records);
        session_ = std::make_unique<serve::ServeSession>(serveOptions, model);
        for (const Variant &variant : variants_)
            variantTasks_.push_back(
                felix::extractSubgraphs(buildNetwork(variant)));
    }

    /** Request the tuned network; its served latency, seconds. */
    double
    sendTuned()
    {
        send(0);
        return checker_.lastLatency().at(variants_[0].key());
    }

    bool missesLeft() const { return sighted_ < variants_.size(); }

    void sendMiss() { send(sighted_++); }

    /** Request the next variant already sighted (a hit). */
    void
    sendHit()
    {
        send(nextHit_);
        nextHit_ = (nextHit_ + 1) % sighted_;
    }

    ServeStats
    finish()
    {
        stats_.lastLatency = checker_.lastLatency();
        return std::move(stats_);
    }

  private:
    void
    send(size_t v)
    {
        sendRequest(*session_, variants_[v].requestLine(), variants_[v].key(),
                    &variantTasks_[v], checker_, stats_, spans_, result_);
    }

    const std::vector<Variant> variants_ = {
        {"resnet50", 1},  {"resnet50", 2},  {"resnet50", 4},
        {"resnet50", 8}, {"resnet50", 16}, {"resnet50", 32}};
    SpanRecorder *spans_;
    RunResult &result_;
    ServeChecker checker_;
    std::unique_ptr<serve::ServeSession> session_;
    std::vector<std::vector<graph::Task>> variantTasks_;
    ServeStats stats_;
    size_t sighted_ = 1;
    size_t nextHit_ = 0;
};

/**
 * Replay @p trace against @p session; checks every response and counts
 * each request as an operation.
 */
ServeStats
replayTrace(serve::ServeSession &session,
            const std::vector<TraceRequest> &trace,
            const std::vector<std::vector<graph::Task>> &variantTasks,
            SpanRecorder *spans, RunResult &result)
{
    ServeChecker checker(tuner::TunerOptions().graphExecOverheadSec);
    ServeStats stats;
    const std::vector<Variant> &variants = serveVariants();
    ScopedSpan span(spans, "serve.replay");
    const Clock::time_point start = Clock::now();
    for (const TraceRequest &request : trace) {
        if (request.rounds) {
            sendRequest(session, request.line, "", nullptr, checker, stats,
                        spans, result);
        } else {
            sendRequest(session, request.line,
                        variants[request.variant].key(),
                        &variantTasks[request.variant], checker, stats,
                        spans, result);
        }
    }
    stats.sec = secondsSince(start);
    stats.lastLatency = checker.lastLatency();
    result.attempted += stats.requests;
    result.failed += stats.failed;
    return stats;
}

/** The distinct subgraphs of @p variant_tasks, first sighting first. */
std::vector<graph::Task>
distinctTasks(const std::vector<std::vector<graph::Task>> &variant_tasks)
{
    std::vector<graph::Task> distinct;
    std::unordered_map<uint64_t, bool> seen;
    for (const auto &tasks : variant_tasks) {
        for (const graph::Task &task : tasks) {
            if (seen.emplace(task.subgraph.structuralHash(), true).second)
                distinct.push_back(task);
        }
    }
    return distinct;
}

/**
 * Probe rounding on @p tasks (probeRounding): one operation per point
 * rounded, failed when the rounded schedule is illegal. Returns the
 * subgraphs with a failed point.
 */
std::unordered_set<uint64_t>
probeRoundingOps(const std::vector<graph::Task> &tasks, SpanRecorder *spans,
                 RunResult &result)
{
    ScopedSpan span(spans, "bench.rounding_probe");
    std::unordered_set<uint64_t> failed;
    for (const graph::Task &task : tasks) {
        int64_t probes = 0;
        for (const std::string &why : probeRounding(task.subgraph, probes)) {
            ++result.failed;
            result.failures.insert(concat(task.exampleLabel, ": ", why));
            failed.insert(task.subgraph.structuralHash());
        }
        result.attempted += probes;
    }
    return failed;
}

/** Geometric mean over variants of the latency of their current bests. */
double
tunedVariantLatency(const serve::ServeSession &session,
                    const std::vector<std::vector<graph::Task>> &variantTasks)
{
    std::unordered_map<uint64_t, double> best;
    for (const tuner::TaskRecord &record :
         session.graphTuner().taskRecords())
        best[record.task.subgraph.structuralHash()] = record.bestLatencySec;
    std::vector<double> latencies;
    for (const auto &tasks : variantTasks) {
        double total = tuner::TunerOptions().graphExecOverheadSec;
        for (const graph::Task &task : tasks)
            total += task.weight * best.at(task.subgraph.structuralHash());
        latencies.push_back(total);
    }
    return felix::geomean(latencies);
}

/** Geometric mean of each variant's last served latency. */
double
servedVariantLatency(const ServeStats &stats)
{
    std::vector<double> latencies;
    for (const auto &[variant, latency] : stats.lastLatency)
        latencies.push_back(latency);
    return felix::geomean(latencies);
}

/** Mean per-round rank correlation from a round log (JSONL). */
std::vector<double>
rankCorrFromRoundLog(const std::string &path)
{
    std::vector<double> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        auto json = felix::obs::parseJson(line);
        const felix::obs::JsonValue *candidates =
            json ? json->find("candidates") : nullptr;
        if (!candidates || !candidates->isArray())
            continue;
        std::vector<double> predicted, measured;
        for (const auto &c : candidates->asArray()) {
            predicted.push_back(c.numberOr("predicted_sec", 0.0));
            measured.push_back(c.numberOr("measured_sec", 0.0));
        }
        if (predicted.size() >= 2)
            out.push_back(rankCorrelation(predicted, measured));
    }
    return out;
}

// ----- Report assembly -----------------------------------------------

/** Every per-layer metric, zero where the workload has no such layer. */
struct LayerReport
{
    std::map<std::string, double> values;

    void set(const std::string &name, double value) { values[name] = value; }

    std::vector<Metric>
    metrics() const
    {
        static const std::vector<std::pair<std::string, std::string>>
            kLayers = {
                {"graph.extract_ms", "ms"},
                {"costmodel.pretrain_s", "s"},
                {"costmodel.load_ms", "ms"},
                {"sketch.generate_ms", "ms"},
                {"features.extract_ms", "ms"},
                {"rewrite.smooth_ms", "ms"},
                {"expr.compile_ms", "ms"},
                {"tuner.space_build_ms", "ms"},
                {"optim.search_s", "s"},
                {"evolutionary.search_s", "s"},
                {"costmodel.finetune_s", "s"},
                {"sim.measure_ms", "ms"},
                {"tuner.round_self_ms", "ms"},
                {"optim.live_lanes", "lanes"},
                {"optim.adam_steps", "count"},
                {"optim.predictions", "count"},
                {"optim.rounding_valid_ratio", "ratio"},
                {"evolutionary.predictions", "count"},
                {"costmodel.finetune_samples", "count"},
                {"costmodel.rank_corr", "rho"},
                {"jit.code_bytes", "bytes"},
                {"tape.instrs", "count"},
                {"serve.hit_us", "us"},
                {"serve.miss_ms", "ms"},
                {"serve.cache_hit_ratio", "ratio"},
                {"support.pool_tasks", "count"},
                {"unattributed_s", "s"},
                {"trace_overhead_s", "s"},
            };
        std::vector<Metric> out;
        for (const auto &[name, unit] : kLayers) {
            auto it = values.find(name);
            out.push_back({name, unit, it == values.end() ? 0.0 : it->second});
        }
        return out;
    }
};

/** Setup-phase and search-space layer metrics shared by all workloads. */
void
reportCommonLayers(const SpanRecorder &spans, LayerReport &layers)
{
    layers.set("graph.extract_ms", spans.total("graph.extract") * 1e3);
    layers.set("costmodel.pretrain_s", spans.total("costmodel.pretrain"));
    layers.set("costmodel.load_ms", spans.total("costmodel.load") * 1e3);
    layers.set("sketch.generate_ms", spans.total("sketch.generate") * 1e3);
    layers.set("features.extract_ms",
               spans.total("features.extract") * 1e3);
    layers.set("rewrite.smooth_ms", spans.total("rewrite.smooth") * 1e3);
    layers.set("expr.compile_ms", spans.total("expr.compile") * 1e3);
    layers.set("tuner.space_build_ms",
               spans.total("tuner.space_build") * 1e3);
}

/**
 * Layers of the tuning between two snapshots of the program's
 * counters: each round's phases from the tuner's phase timers, the
 * search and fine-tuning counts, and what the program compiled and ran
 * on its pool. @p round_sec is the rounds' wall time as the benchmark
 * timed it; what the phase timers leave of it is the round's own time.
 */
void
reportRoundLayers(const std::map<std::string, double> &before,
                  const std::map<std::string, double> &after,
                  tuner::StrategyKind kind, double round_sec,
                  LayerReport &layers)
{
    auto d = [&](const std::string &name) {
        return delta(before, after, name);
    };
    const bool felixSearch = kind == tuner::StrategyKind::FelixGradient;
    const double searchMs = d("tuner.search_ms");
    const double measureMs = d("tuner.measure_ms");
    const double finetuneMs = d("tuner.finetune_ms");
    layers.set(felixSearch ? "optim.search_s" : "evolutionary.search_s",
               searchMs / 1e3);
    layers.set("sim.measure_ms", measureMs);
    layers.set("costmodel.finetune_s", finetuneMs / 1e3);
    layers.set("tuner.round_self_ms",
               round_sec * 1e3 - searchMs - measureMs - finetuneMs);
    layers.set(felixSearch ? "optim.predictions" : "evolutionary.predictions",
               d("search.predictions"));
    if (felixSearch) {
        layers.set("optim.live_lanes",
                   ratio(d("search.seeds"), d("search.seed_batches")));
        layers.set("optim.adam_steps", d("search.adam_steps"));
        layers.set("optim.rounding_valid_ratio",
                   1.0 - ratio(d("search.rounding_invalid"),
                               d("search.rounding_attempts")));
    }
    layers.set("costmodel.finetune_samples", d("costmodel.train_samples"));
    layers.set("jit.code_bytes", d("jit.code_bytes"));
    layers.set("tape.instrs", d("tape.instrs_optimized"));
    layers.set("support.pool_tasks", d("threads.tasks_executed"));
}

void
reportServeLayers(const ServeStats &stats, LayerReport &layers)
{
    layers.set("serve.hit_us", felix::mean(stats.hitUs));
    layers.set("serve.miss_ms", felix::mean(stats.missMs));
    layers.set("serve.cache_hit_ratio", ratio(stats.lookupHits, stats.lookups));
}

std::vector<Metric>
endToEnd(double setup_s, double tune_s, double tuned_latency_ms,
         double served_latency_ms, const std::vector<double> &round_ms)
{
    return {
        {"setup_s", "s", setup_s},
        {"tune_s", "s", tune_s},
        {"tuned_latency_ms", "ms", tuned_latency_ms},
        {"served_latency_ms", "ms", served_latency_ms},
        {"rounds_p50_ms", "ms", quantile(round_ms, 0.5)},
        {"peak_rss_mb", "MB", peakRssMb()},
    };
}

// ----- Workloads -----------------------------------------------------

RunResult
runTune(const RunOptions &options, tuner::StrategyKind kind,
        Clock::time_point process_start)
{
    RunResult result;
    felix::setGlobalJobs(kTuneJobs);
    SpanRecorder recorder;
    SpanRecorder *spans = options.trace ? &recorder : nullptr;

    std::vector<graph::Task> tasks;
    {
        ScopedSpan span(spans, "graph.extract");
        tasks = felix::extractSubgraphs(felix::models::resnet50(1));
    }
    const costmodel::CostModel model =
        coldCostModel(options.runDir + "/model", spans);
    tuner::TunerOptions tunerOptions;
    tunerOptions.strategy = kind;
    tunerOptions.seed = options.seed;
    tunerOptions.numThreads = kTuneJobs;

    if (!options.trace) {
        // Tunes come in pairs of two seeds, so a run's tune_s and
        // tuned latency average over two search trajectories.
        const uint64_t seeds[2] = {options.seed,
                                   felix::hashCombine(options.seed, 2)};
        auto graphTuner = std::make_unique<tuner::GraphTuner>(
            tasks, model, kDevice, tunerOptions);
        const double setupSec = secondsSince(process_start);

        std::vector<double> tuneSec, roundMs, tunedLatency;
        std::vector<TaskBest> firstBests[2];
        double servedLatency = 0.0;
        const Clock::time_point measureStart = Clock::now();
        for (int pair = 0; pair == 0 || secondsSince(measureStart) <
                                            options.seconds;
             ++pair) {
            for (int i = 0; i < 2; ++i) {
                if (pair > 0 || i > 0) {
                    graphTuner.reset();
                    tunerOptions.seed = seeds[i];
                    graphTuner = std::make_unique<tuner::GraphTuner>(
                        tasks, model, kDevice, tunerOptions);
                }
                TuneTiming timing;
                std::vector<TaskBest> bests =
                    tuneToBudget(*graphTuner, kTuneBudgetSec, &timing);
                tuneSec.push_back(timing.sec);
                roundMs.insert(roundMs.end(), timing.roundMs.begin(),
                               timing.roundMs.end());
                result.attempted += graphTuner->totalRounds();
                if (pair > 0) {
                    if (bests != firstBests[i])
                        fail(result, concat("tune of seed ", seeds[i],
                                            " chose other schedules when "
                                            "repeated"));
                    continue;
                }
                tunedLatency.push_back(graphTuner->networkLatency());
                checkTunedNetwork(tasks, bests, seeds[i], result.errors);
                if (i == 0) {
                    TunedServer server(tasks, bests, model, options, nullptr,
                                       result);
                    servedLatency = server.sendTuned();
                    const ServeStats served = server.finish();
                    result.attempted += served.requests;
                    result.failed += served.failed;
                    if (!(std::fabs(servedLatency - tunedLatency[0]) <=
                          1e-9 * tunedLatency[0]))
                        fail(result, concat("served latency ", servedLatency,
                                            " s of the tuned network is not "
                                            "its tuned latency ",
                                            tunedLatency[0], " s"));
                }
                firstBests[i] = std::move(bests);
            }
        }
        result.metrics = endToEnd(setupSec, median(tuneSec),
                                  felix::geomean(tunedLatency) * 1e3,
                                  servedLatency * 1e3, roundMs);
        return result;
    }

    // Traced run: the search-space layers on this network's subgraphs,
    // then three tunes of the seed: untraced, traced (counter deltas and
    // the tuner's round log), untraced again. The tracing overhead is
    // the traced tune against the mean of the two others, so that a
    // tune's place in the process does not count as tracing.
    timeSearchSpaceLayers(tasks, recorder);
    auto untracedTune = [&](std::vector<TaskBest> &bests) {
        ScopedSpan span(spans, "tuner.reference_tune");
        tuner::GraphTuner graphTuner(tasks, model, kDevice, tunerOptions);
        TuneTiming timing;
        bests = tuneToBudget(graphTuner, kTuneBudgetSec, &timing);
        result.attempted += graphTuner.totalRounds();
        return timing.sec;
    };
    std::vector<TaskBest> firstBests, lastBests, bests;
    const double firstSec = untracedTune(firstBests);
    tuner::TunerOptions tracedOptions = tunerOptions;
    tracedOptions.roundLogPath = options.runDir + "/rounds.jsonl";
    const auto before = counters();
    std::unique_ptr<tuner::GraphTuner> graphTuner;
    {
        // Every task's strategy (sketches, features, rewrite, tapes) and
        // the all-ones measurement that starts it.
        ScopedSpan span(spans, "tuner.space_build");
        graphTuner = std::make_unique<tuner::GraphTuner>(
            tasks, model, kDevice, tracedOptions);
    }
    TuneTiming timing;
    {
        ScopedSpan span(spans, "tuner.tune");
        bests = tuneToBudget(*graphTuner, kTuneBudgetSec, &timing);
    }
    const auto after = counters();
    result.attempted += graphTuner->totalRounds();
    const double lastSec = untracedTune(lastBests);
    if (bests != firstBests || lastBests != firstBests)
        fail(result, concat("repeated tunes of seed ", options.seed,
                            " chose other schedules"));
    {
        ScopedSpan span(spans, "bench.checks");
        checkTunedNetwork(tasks, bests, options.seed, result.errors);
    }
    ServeStats served;
    {
        ScopedSpan span(spans, "serve.tuned");
        TunedServer server(tasks, bests, model, options, spans, result);
        server.sendTuned();
        while (server.missesLeft())
            server.sendMiss();
        for (int k = 0; k < kTunedServeHits; ++k)
            server.sendHit();
        served = server.finish();
    }
    result.attempted += served.requests;
    result.failed += served.failed;

    LayerReport layers;
    reportCommonLayers(recorder, layers);
    reportRoundLayers(before, after, kind, timing.sec, layers);
    reportServeLayers(served, layers);
    layers.set("costmodel.rank_corr",
               felix::mean(rankCorrFromRoundLog(tracedOptions.roundLogPath)));
    layers.set("trace_overhead_s", timing.sec - 0.5 * (firstSec + lastSec));
    layers.set("unattributed_s",
               secondsSince(process_start) - recorder.rootTotal());
    result.metrics = layers.metrics();
    return result;
}

RunResult
runServe(const RunOptions &options, Clock::time_point process_start)
{
    RunResult result;
    felix::setGlobalJobs(kServeJobs);
    SpanRecorder recorder;
    SpanRecorder *spans = options.trace ? &recorder : nullptr;

    const std::vector<Variant> &variants = serveVariants();
    std::vector<std::vector<graph::Task>> variantTasks;
    {
        ScopedSpan span(spans, "graph.extract");
        for (const Variant &variant : variants)
            variantTasks.push_back(
                felix::extractSubgraphs(buildNetwork(variant)));
    }
    const std::vector<graph::Task> distinct = distinctTasks(variantTasks);
    const costmodel::CostModel model =
        coldCostModel(options.runDir + "/model", spans);
    serve::ServeOptions serveOptions;
    serveOptions.tuner.numThreads = kServeJobs;
    serveOptions.tuner.seed = kServeTunerSeed;
    auto session = std::make_unique<serve::ServeSession>(serveOptions, model);
    const std::vector<TraceRequest> trace = makeServeTrace(options.seed);

    // A pass is one trace replay on a fresh session followed by the
    // rounding probe on the trace's subgraphs, so every pass attempts
    // the same operations.
    if (!options.trace) {
        const double setupSec = secondsSince(process_start);
        // Whole passes until the run's time is used; every replay must
        // answer byte-identically.
        std::vector<double> passSec, roundMs;
        std::vector<uint64_t> firstResponses;
        double servedLatency = 0.0, tunedLatency = 0.0;
        const Clock::time_point measureStart = Clock::now();
        for (int pass = 0;; ++pass) {
            if (pass > 0) {
                session.reset();
                session = std::make_unique<serve::ServeSession>(serveOptions,
                                                                model);
            }
            ServeStats stats =
                replayTrace(*session, trace, variantTasks, nullptr, result);
            const auto probeFailed =
                probeRoundingOps(distinct, nullptr, result);
            passSec.push_back(stats.sec);
            roundMs.insert(roundMs.end(), stats.roundMs.begin(),
                           stats.roundMs.end());
            if (pass == 0) {
                firstResponses = stats.responseHashes;
                servedLatency = servedVariantLatency(stats);
                tunedLatency = tunedVariantLatency(*session, variantTasks);
                checkServedSchedules(stats, options.seed, probeFailed,
                                     result);
            } else if (stats.responseHashes != firstResponses) {
                fail(result, concat("trace replay ", pass,
                                    " answered differently from replay 0"));
            }
            if (secondsSince(measureStart) >= options.seconds)
                break;
        }
        result.metrics = endToEnd(setupSec, median(passSec),
                                  tunedLatency * 1e3, servedLatency * 1e3,
                                  roundMs);
        return result;
    }

    // Traced run: the search-space layers and strategy construction on
    // the trace's distinct subgraphs, then three passes: untraced,
    // traced (spans, counter deltas and the tuner's round log for the
    // rank correlation), untraced again. The tracing overhead is the
    // traced replay against the mean of the two others.
    timeSearchSpaceLayers(distinct, recorder);
    for (const graph::Task &task : distinct) {
        ScopedSpan span(spans, "tuner.space_build");
        (void)tuner::makeStrategy(tuner::StrategyKind::FelixGradient, task,
                                  serveOptions.tuner.grad,
                                  serveOptions.tuner.evo);
    }
    auto untracedPass = [&] {
        ScopedSpan span(spans, "serve.reference_replay");
        session.reset();
        session = std::make_unique<serve::ServeSession>(serveOptions, model);
        ServeStats stats =
            replayTrace(*session, trace, variantTasks, nullptr, result);
        probeRoundingOps(distinct, nullptr, result);
        return stats;
    };
    const ServeStats first = untracedPass();
    serve::ServeOptions tracedOptions = serveOptions;
    tracedOptions.tuner.roundLogPath = options.runDir + "/rounds.jsonl";
    session.reset();
    session = std::make_unique<serve::ServeSession>(tracedOptions, model);
    const auto before = counters();
    const ServeStats stats =
        replayTrace(*session, trace, variantTasks, spans, result);
    const auto after = counters();
    const auto probeFailed = probeRoundingOps(distinct, spans, result);
    const ServeStats last = untracedPass();
    if (stats.responseHashes != first.responseHashes ||
        last.responseHashes != first.responseHashes)
        fail(result, "trace replays answered differently");
    {
        ScopedSpan span(spans, "bench.checks");
        checkServedSchedules(stats, options.seed, probeFailed, result);
    }

    LayerReport layers;
    reportCommonLayers(recorder, layers);
    reportRoundLayers(before, after, tuner::StrategyKind::FelixGradient,
                      recorder.total("serve.rounds"), layers);
    reportServeLayers(stats, layers);
    layers.set("costmodel.rank_corr",
               felix::mean(
                   rankCorrFromRoundLog(tracedOptions.tuner.roundLogPath)));
    layers.set("trace_overhead_s", stats.sec - 0.5 * (first.sec + last.sec));
    layers.set("unattributed_s",
               secondsSince(process_start) - recorder.rootTotal());
    result.metrics = layers.metrics();
    return result;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "felix_resnet50", "ansor_resnet50", "serve_mixed"};
    return names;
}

std::vector<TaskBest>
tuneToBudget(tuner::GraphTuner &graph_tuner, double budget_sec,
             TuneTiming *timing)
{
    while (graph_tuner.clockNow() < budget_sec) {
        const Clock::time_point start = Clock::now();
        graph_tuner.tuneRounds(1);
        const double sec = secondsSince(start);
        if (timing) {
            timing->sec += sec;
            timing->roundMs.push_back(sec * 1e3);
        }
    }
    return bestsOf(graph_tuner);
}

void
checkTunedNetwork(const std::vector<graph::Task> &tasks,
                  const std::vector<TaskBest> &bests, uint64_t noise_seed,
                  std::vector<std::string> &errors)
{
    if (bests.size() != tasks.size()) {
        errors.push_back(concat(bests.size(), " schedules for ",
                                tasks.size(), " tasks"));
        return;
    }
    const auto &deviceConfig = felix::sim::deviceConfig(kDevice);
    for (size_t i = 0; i < tasks.size(); ++i) {
        const std::string why = checkTunedTask(
            tasks[i].subgraph, bests[i].sketchIndex, bests[i].x,
            bests[i].latencySec, deviceConfig,
            felix::hashCombine(noise_seed, i));
        if (!why.empty())
            errors.push_back(concat(tasks[i].exampleLabel, ": ", why));
    }
}

RunResult
runWorkload(const RunOptions &options, Clock::time_point process_start)
{
    if (options.workload == "felix_resnet50")
        return runTune(options, tuner::StrategyKind::FelixGradient,
                       process_start);
    if (options.workload == "ansor_resnet50")
        return runTune(options, tuner::StrategyKind::AnsorTenSet,
                       process_start);
    if (options.workload == "serve_mixed")
        return runServe(options, process_start);
    RunResult result;
    fail(result, "unknown workload " + options.workload);
    return result;
}

} // namespace perfbench
