#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "features/features.h"
#include "obs/json.h"
#include "sim/gpu_model.h"
#include "sketch/sampling.h"
#include "sketch/sketch.h"
#include "support/logging.h"
#include "support/rng.h"
#include "tir/program.h"

namespace perfbench {

using felix::concat;
using felix::expr::Expr;

namespace {

/** Constraint slack accepted, as in sketch::ConstraintChecker. */
constexpr double kConstraintTol = 1e-6;

/** Relative slack for comparing sums computed in another order. */
constexpr double kSumTol = 1e-9;

std::string
legalIn(const std::vector<felix::sketch::SymbolicSchedule> &sketches,
        int sketch_index, const std::vector<double> &x, bool power_of_two)
{
    if (sketch_index < 0 ||
        sketch_index >= static_cast<int>(sketches.size()))
        return concat("sketch index ", sketch_index, " out of range");
    const auto &sched = sketches[sketch_index];
    if (x.size() != sched.vars.size())
        return concat("schedule has ", x.size(), " values for ",
                      sched.vars.size(), " variables");
    std::vector<std::pair<std::string, Expr>> binding;
    for (size_t i = 0; i < x.size(); ++i) {
        const auto &domain = sched.vars[i];
        const double v = x[i];
        if (!std::isfinite(v) || v != std::round(v))
            return concat(domain.name, " = ", v, " is not an integer");
        const auto value = static_cast<int64_t>(v);
        if (value < domain.lo || value > domain.hi)
            return concat(domain.name, " = ", value, " outside [",
                          domain.lo, ", ", domain.hi, "]");
        if (domain.divisorOf > 0 && domain.divisorOf % value != 0)
            return concat(domain.name, " = ", value, " does not divide ",
                          domain.divisorOf);
        if (power_of_two && domain.powerOfTwo && (value & (value - 1)) != 0)
            return concat(domain.name, " = ", value,
                          " is not a power of two");
        binding.emplace_back(domain.name, Expr::intConst(value));
    }
    for (const auto &group : sched.groups) {
        int64_t product = 1;
        for (int index : group.varIndices)
            product *= static_cast<int64_t>(x[index]);
        if (product <= 0 || group.extent % product != 0)
            return concat("split factors (product ", product,
                          ") do not divide extent ", group.extent);
    }
    for (size_t i = 0; i < sched.constraints.size(); ++i) {
        const Expr g = felix::expr::substitute(sched.constraints[i],
                                               binding);
        if (!g.isConst())
            return concat("constraint ", i, " does not evaluate to a "
                                            "constant");
        if (!(g.constValue() <= kConstraintTol))
            return concat("constraint ", i, " violated: g = ",
                          g.constValue());
    }
    return "";
}

double
remeasureIn(const felix::tir::SubgraphDef &subgraph,
            const felix::sketch::SymbolicSchedule &sched,
            const std::vector<double> &x,
            const felix::sim::DeviceConfig &device, uint64_t noise_seed)
{
    const felix::tir::Program program =
        felix::tir::applySchedule(subgraph, sched.schedule.bind(x));
    std::vector<double> features;
    for (const Expr &f : felix::features::extractFeatures(program)) {
        if (!f.isConst())
            return std::numeric_limits<double>::quiet_NaN();
        features.push_back(f.constValue());
    }
    return felix::sim::measureKernel(features, device, noise_seed);
}

} // namespace

std::string
checkLegal(const felix::tir::SubgraphDef &subgraph, int sketch_index,
           const std::vector<double> &x)
{
    return legalIn(felix::sketch::generateSketches(subgraph), sketch_index,
                   x, true);
}

double
remeasure(const felix::tir::SubgraphDef &subgraph, int sketch_index,
          const std::vector<double> &x,
          const felix::sim::DeviceConfig &device, uint64_t noise_seed)
{
    const auto sketches = felix::sketch::generateSketches(subgraph);
    if (!legalIn(sketches, sketch_index, x, true).empty())
        return std::numeric_limits<double>::quiet_NaN();
    return remeasureIn(subgraph, sketches[sketch_index], x, device,
                       noise_seed);
}

std::vector<std::string>
probeRounding(const felix::tir::SubgraphDef &subgraph, int64_t &probes)
{
    std::vector<std::string> illegal;
    const auto sketches = felix::sketch::generateSketches(subgraph);
    for (size_t s = 0; s < sketches.size(); ++s) {
        const auto &sched = sketches[s];
        const felix::sketch::ConstraintChecker checker(sched);
        for (size_t v = 0; v < sched.vars.size(); ++v) {
            const auto &domain = sched.vars[v];
            if (!domain.powerOfTwo)
                continue;
            const int64_t top = std::min<int64_t>(domain.hi, kProbeMax);
            for (int64_t value = std::max<int64_t>(domain.lo, 3);
                 value <= top; ++value) {
                if ((value & (value - 1)) == 0)
                    continue;
                std::vector<double> y(sched.vars.size(), 0.0);
                y[v] = std::log(static_cast<double>(value));
                ++probes;
                const auto x = felix::sketch::roundToValid(sched, y, checker);
                if (!x)
                    continue;   // rejected as infeasible: nothing served
                const std::string why =
                    legalIn(sketches, static_cast<int>(s), *x, true);
                if (!why.empty())
                    illegal.push_back(concat("rounding ", domain.name, " = ",
                                             value, " in sketch ", s, ": ",
                                             why));
            }
        }
    }
    return illegal;
}

std::string
checkLatency(double recorded, double remeasured)
{
    if (!(recorded > 0.0) || !(remeasured > 0.0))
        return concat("latency ", recorded, " s or its re-measurement ",
                      remeasured, " s is not positive");
    if (!(std::fabs(std::log(recorded / remeasured)) <= kNoiseBand))
        return concat("recorded latency ", recorded,
                      " s disagrees with re-measured ", remeasured, " s");
    return "";
}

std::string
checkNotWorse(double tuned, double all_ones)
{
    if (!(tuned > 0.0) || !(all_ones > 0.0))
        return concat("latency ", tuned, " s or all-ones latency ",
                      all_ones, " s is not positive");
    if (!(std::log(tuned / all_ones) <= kNoiseBand))
        return concat("tuned latency ", tuned,
                      " s is worse than the all-ones schedule's ",
                      all_ones, " s");
    return "";
}

std::string
checkTunedTask(const felix::tir::SubgraphDef &subgraph, int sketch_index,
               const std::vector<double> &x, double latency_sec,
               const felix::sim::DeviceConfig &device, uint64_t noise_seed,
               bool power_of_two)
{
    const auto sketches = felix::sketch::generateSketches(subgraph);
    std::string why = legalIn(sketches, sketch_index, x, power_of_two);
    if (!why.empty())
        return why;
    const double again =
        remeasureIn(subgraph, sketches[sketch_index], x, device,
                    felix::hashCombine(noise_seed, 1));
    why = checkLatency(latency_sec, again);
    if (!why.empty())
        return why;
    const std::vector<double> ones(sketches.front().vars.size(), 1.0);
    const double allOnes = remeasureIn(subgraph, sketches.front(), ones,
                                       device,
                                       felix::hashCombine(noise_seed, 2));
    return checkNotWorse(latency_sec, allOnes);
}

std::string
ServeChecker::checkTune(const std::string &variant,
                        const std::vector<felix::graph::Task> &tasks,
                        const std::string &response,
                        std::vector<ServedTask> *answers)
{
    auto parsed = felix::obs::parseJson(response);
    if (!parsed || !parsed->isObject())
        return "response is not a JSON object";
    const auto &json = *parsed;
    if (json.stringOr("type", "") != "schedules")
        return concat("unexpected response ", response.substr(0, 120));
    const felix::obs::JsonValue *list = json.find("tasks");
    if (!list || !list->isArray() || list->asArray().size() != tasks.size())
        return concat(variant, ": response does not answer each of its ",
                      tasks.size(), " subgraphs");
    const double hits = json.numberOr("cache_hits", -1.0);
    const double misses = json.numberOr("cache_misses", -1.0);
    if (hits + misses != static_cast<double>(tasks.size()))
        return concat(variant, ": cache_hits + cache_misses = ",
                      hits + misses, ", extracted ", tasks.size());

    std::unordered_set<uint64_t> known = known_;
    int expectedMisses = 0;
    double sum = overheadSec_;
    std::vector<ServedTask> parsedAnswers;
    for (size_t i = 0; i < tasks.size(); ++i) {
        const auto &answer = list->asArray()[i];
        const uint64_t hash = tasks[i].subgraph.structuralHash();
        if (!answer.isObject() ||
            answer.stringOr("hash", "") != std::to_string(hash))
            return concat(variant, ": answer ", i,
                          " is not for subgraph ", hash);
        const bool wasKnown = !known.insert(hash).second;
        if (!wasKnown)
            ++expectedMisses;
        const felix::obs::JsonValue *cached = answer.find("cached");
        if (!cached || cached->kind() != felix::obs::JsonValue::Kind::Bool ||
            cached->asBool() != wasKnown)
            return concat(variant, ": answer ", i, " cached flag wrong");
        ServedTask served;
        served.hash = hash;
        served.sketchIndex =
            static_cast<int>(answer.numberOr("sketch", -1.0));
        served.latencySec = answer.numberOr("latency_sec", -1.0);
        served.cached = wasKnown;
        const felix::obs::JsonValue *vars = answer.find("vars");
        if (!vars || !vars->isArray())
            return concat(variant, ": answer ", i, " has no vars");
        for (const auto &v : vars->asArray())
            served.vars.push_back(v.isNumber() ? v.asNumber() : NAN);
        sum += tasks[i].weight * served.latencySec;
        parsedAnswers.push_back(std::move(served));
    }
    if (misses != expectedMisses)
        return concat(variant, ": ", misses, " misses reported, ",
                      expectedMisses, " subgraphs were new");
    const double latency = json.numberOr("latency_sec", -1.0);
    if (!(std::fabs(latency - sum) <= kSumTol * sum))
        return concat(variant, ": latency ", latency,
                      " s is not the weighted sum of its answers, ", sum);
    auto last = lastLatency_.find(variant);
    if (last != lastLatency_.end() &&
        !(latency <= last->second * (1.0 + kSumTol)))
        return concat(variant, ": served latency rose from ",
                      last->second, " s to ", latency, " s");

    known_ = std::move(known);
    lastLatency_[variant] = latency;
    if (answers)
        *answers = std::move(parsedAnswers);
    return "";
}

} // namespace perfbench
