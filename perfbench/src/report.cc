#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/json.h"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

int
SpanRecorder::open(const std::string &name)
{
    Span span;
    span.name = name;
    span.startSec = secondsSince(origin_);
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    spans_[id].endSec = secondsSince(origin_);
    // Spans close in scope order, so the closed span is the top.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

double
SpanRecorder::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &span : spans_) {
        if (span.name == name)
            sum += span.endSec - span.startSec;
    }
    return sum;
}

double
SpanRecorder::rootTotal() const
{
    double sum = 0.0;
    for (const Span &span : spans_) {
        if (span.parent < 0)
            sum += span.endSec - span.startSec;
    }
    return sum;
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, const std::string &name)
    : recorder_(recorder)
{
    if (recorder_)
        id_ = recorder_->open(name);
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_)
        recorder_->close(id_);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

namespace {

/** Average ranks (ties share their mean rank). */
std::vector<double>
ranks(const std::vector<double> &values)
{
    std::vector<size_t> order(values.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return values[a] < values[b];
    });
    std::vector<double> out(values.size(), 0.0);
    for (size_t i = 0; i < order.size();) {
        size_t j = i;
        while (j + 1 < order.size() &&
               values[order[j + 1]] == values[order[i]])
            ++j;
        const double rank = 0.5 * static_cast<double>(i + j);
        for (size_t k = i; k <= j; ++k)
            out[order[k]] = rank;
        i = j + 1;
    }
    return out;
}

} // namespace

double
rankCorrelation(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size() || a.size() < 2)
        return 0.0;
    const std::vector<double> ra = ranks(a), rb = ranks(b);
    const double n = static_cast<double>(a.size());
    const double meanRank = (n - 1.0) / 2.0;
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (size_t i = 0; i < ra.size(); ++i) {
        cov += (ra[i] - meanRank) * (rb[i] - meanRank);
        va += (ra[i] - meanRank) * (ra[i] - meanRank);
        vb += (rb[i] - meanRank) * (rb[i] - meanRank);
    }
    if (va <= 0.0 || vb <= 0.0)
        return 0.0;
    return cov / std::sqrt(va * vb);
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;   // KiB -> MiB
}

std::string
resultJson(bool correct, int64_t attempted, int64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i > 0)
            out += ", ";
        out += felix::obs::jsonEscape(m.name) + ": {\"value\": " +
               felix::obs::jsonNumber(m.value) +
               ", \"unit\": " + felix::obs::jsonEscape(m.unit) + "}";
    }
    return out + "}}";
}

} // namespace perfbench
