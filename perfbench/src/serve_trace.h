/**
 * @file
 * The seeded request trace of the serve_mixed workload.
 *
 * One closed-loop client replays NDJSON requests against a fresh
 * serving session. kTuneRequests tune requests go to the eight
 * network/batch variants in Zipf(kZipfExponent) proportions by a fixed
 * popularity order, so every seed sends the same mix. The first request
 * of each variant (a cache miss) comes first, in seeded order; the
 * repeat requests, which are hits, follow with each variant spread
 * evenly over the trace: kTuneRequests - 8 >= 1000 hits leave more than
 * ten samples beyond the 99th percentile. kRoundRequests
 * {"op":"rounds","n":1} requests are spread evenly over the hits, the
 * first right after the last miss. The seed shuffles the requests
 * between two of them, so the scheduler sees the same traffic counts
 * at every round whatever the seed.
 */
#ifndef PERFBENCH_SERVE_TRACE_H_
#define PERFBENCH_SERVE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** A network at one batch size, as a tune request names it. */
struct Variant
{
    std::string network;
    int batch = 1;

    std::string key() const;
    std::string requestLine() const;
};

/** The eight variants serve_mixed requests, most popular first. */
const std::vector<Variant> &serveVariants();

constexpr int kTuneRequests = 1100;
/** Enough rounds to visit each of the trace's 150 distinct subgraphs
 *  once (the scheduler's first pass) and then spend the rest by
 *  traffic. */
constexpr int kRoundRequests = 200;
constexpr double kZipfExponent = 1.1;

/** One trace entry: a rounds request, or a tune request. */
struct TraceRequest
{
    bool rounds = false;
    int variant = -1;   ///< index into serveVariants() for tune
    std::string line;
};

std::vector<TraceRequest> makeServeTrace(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_SERVE_TRACE_H_
