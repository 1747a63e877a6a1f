/**
 * @file
 * Measurement plumbing of the benchmark: a wall clock, an in-memory
 * span recorder for the traced run, order statistics, peak memory,
 * and the one-line JSON result the benchmark prints last.
 */
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/**
 * Spans recorded by the benchmark around its calls into the library.
 * Spans nest by scope; each knows its parent, so the root spans'
 * total is the time the recorder attributes to some call.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double startSec = 0.0;
        double endSec = 0.0;
        int parent = -1;
    };

    /** Open a span as a child of the innermost open span. */
    int open(const std::string &name);
    void close(int id);

    /** Total duration of every span with this name, seconds. */
    double total(const std::string &name) const;
    /** Total duration of the root spans, seconds. */
    double rootTotal() const;

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    int id_ = -1;
};

/** The @p q quantile (0..1) by linear interpolation; 0 when empty. */
double quantile(std::vector<double> values, double q);
double median(const std::vector<double> &values);

/** Spearman rank correlation; 0 when undefined. */
double rankCorrelation(const std::vector<double> &a,
                       const std::vector<double> &b);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** A named metric with its unit, in print order. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. */
std::string resultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H_
