/**
 * @file
 * Output checks of the benchmark. Each one recomputes what the
 * program claims through an independent path — freshly generated
 * sketches, the expression evaluator, the concrete program that
 * tir::applySchedule builds, a re-measurement with a fresh noise seed,
 * the benchmark's own subgraph extraction — instead of comparing with a
 * stored copy of earlier output. Every check returns an empty string
 * when the output passes and a one-line reason when it does not.
 */
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"
#include "sim/device.h"
#include "tir/compute.h"

namespace perfbench {

/**
 * Largest |log(recorded / re-measured)| accepted as run-to-run noise.
 * The simulator's run noise is exp(N(0, 0.015)) per measurement, so
 * the log ratio of two independent runs has sigma ~0.021; a tuned
 * best is also the minimum of many noisy runs, which biases it low by
 * up to ~3.5 sigma of one run. 0.12 covers both with margin and still
 * rejects a latency misreported by more than ~13%.
 */
constexpr double kNoiseBand = 0.12;

/**
 * The schedule lies in its sketch's declared domains, its split groups
 * divide their loop extents, and every constraint g(x) <= 0 holds when
 * the sketch's constraint expressions are evaluated by substitution.
 * Sketches are regenerated from @p subgraph.
 */
std::string checkLegal(const felix::tir::SubgraphDef &subgraph,
                       int sketch_index, const std::vector<double> &x);

/**
 * Latency of the schedule measured with @p noise_seed, from features of
 * the concrete program (bind, tir::applySchedule,
 * features::extractFeatures). NaN when the concrete program's features
 * are not all constants.
 */
double remeasure(const felix::tir::SubgraphDef &subgraph, int sketch_index,
                 const std::vector<double> &x,
                 const felix::sim::DeviceConfig &device,
                 uint64_t noise_seed);

/** @p recorded agrees with @p remeasured within kNoiseBand. */
std::string checkLatency(double recorded, double remeasured);

/** @p tuned is no worse than the all-ones schedule beyond noise. */
std::string checkNotWorse(double tuned, double all_ones);

/**
 * All three schedule checks for one tuned task: legal, recorded
 * latency matches a re-measurement, and no worse than the re-measured
 * all-ones schedule. Noise seeds derive from @p noise_seed. Without
 * @p power_of_two the legality check skips the declared powers of two,
 * for subgraphs whose rounding probe already failed.
 */
std::string checkTunedTask(const felix::tir::SubgraphDef &subgraph,
                           int sketch_index, const std::vector<double> &x,
                           double latency_sec,
                           const felix::sim::DeviceConfig &device,
                           uint64_t noise_seed, bool power_of_two = true);

/** Largest value probeRounding tries for a power-of-two variable. */
constexpr int64_t kProbeMax = 16;

/**
 * Rounding keeps declared powers of two: for every sketch of
 * @p subgraph, every variable declared a power of two and every value
 * of its domain up to kProbeMax that is not one, round the point that
 * puts that variable at the value and every other at 1 with
 * sketch::roundToValid and run the legality check on the result.
 * Returns one reason per illegal result; adds the number of points
 * rounded to @p probes.
 */
std::vector<std::string> probeRounding(
    const felix::tir::SubgraphDef &subgraph, int64_t &probes);

/** One task answer parsed from a tune response. */
struct ServedTask
{
    uint64_t hash = 0;
    int sketchIndex = 0;
    std::vector<double> vars;
    double latencySec = 0.0;
    bool cached = false;
};

/**
 * Checks the stream of tune responses of one serving session against
 * the benchmark's own extraction of each requested network: every
 * subgraph is answered once, in order, flagged cached exactly when an
 * earlier request already brought it (so cache_hits + cache_misses is
 * the subgraph count and a request of known subgraphs adds no miss),
 * the end-to-end latency is the weighted sum of the answers, and a
 * variant's served latency never increases.
 */
class ServeChecker
{
  public:
    explicit ServeChecker(double graph_exec_overhead_sec)
        : overheadSec_(graph_exec_overhead_sec)
    {
    }

    /** Treat these subgraphs as already cached (warm start). */
    void markKnown(uint64_t hash) { known_.insert(hash); }

    /**
     * Check one response to a tune request for @p variant, whose
     * subgraphs the benchmark extracted as @p tasks. On success fills
     * @p answers (when non-null) with the parsed task answers.
     */
    std::string checkTune(const std::string &variant,
                          const std::vector<felix::graph::Task> &tasks,
                          const std::string &response,
                          std::vector<ServedTask> *answers = nullptr);

    /** Last served end-to-end latency of each variant, seconds. */
    const std::map<std::string, double> &lastLatency() const
    {
        return lastLatency_;
    }

  private:
    double overheadSec_;
    std::unordered_set<uint64_t> known_;
    std::map<std::string, double> lastLatency_;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H_
