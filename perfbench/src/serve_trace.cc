#include "serve_trace.h"

#include <algorithm>
#include <cmath>

#include "support/rng.h"

namespace perfbench {

std::string
Variant::key() const
{
    return network + "/b" + std::to_string(batch);
}

std::string
Variant::requestLine() const
{
    return "{\"op\":\"tune\",\"network\":\"" + network +
           "\",\"batch\":" + std::to_string(batch) + "}";
}

const std::vector<Variant> &
serveVariants()
{
    // Most popular first. Residual, mobile, transformer, generator,
    // decoder and 3-D networks at two batch sizes: a miss brings five
    // (dcgan) to 37 (mobilenet_v2) new subgraphs, and r3d_18 shares
    // subgraphs with resnet50, so its miss also carries hits.
    static const std::vector<Variant> variants = {
        {"resnet50", 1}, {"mobilenet_v2", 1}, {"llama", 1},
        {"vit_b32", 1},  {"dcgan", 1},        {"resnet50", 16},
        {"r3d_18", 1},   {"llama", 4},
    };
    return variants;
}

std::vector<TraceRequest>
makeServeTrace(uint64_t seed)
{
    felix::Rng rng(felix::hashCombine(seed, 0x5e7e));
    const std::vector<Variant> &variants = serveVariants();
    const int n = static_cast<int>(variants.size());

    // Zipf request counts by popularity rank, fixed for every seed so
    // each seed sends the same mix: rank r gets a share 1/(r+1)^s of
    // the requests, and the largest remainders take the rounding slack.
    std::vector<double> share(n);
    double total = 0.0;
    for (int r = 0; r < n; ++r)
        total += share[r] = 1.0 / std::pow(r + 1.0, kZipfExponent);
    std::vector<int> counts(n);
    int assigned = 0;
    for (int r = 0; r < n; ++r) {
        share[r] *= kTuneRequests / total;
        counts[r] = std::max(1, static_cast<int>(share[r]));
        assigned += counts[r];
    }
    while (assigned < kTuneRequests) {
        int best = 0;
        for (int r = 1; r < n; ++r) {
            if (share[r] - counts[r] > share[best] - counts[best])
                best = r;
        }
        ++counts[best];
        ++assigned;
    }

    // Every variant's first sighting (a miss) comes first, in seeded
    // order, as when a fleet comes online. The repeat requests (hits)
    // follow, each variant's spread evenly over the trace. Rounds
    // request r precedes hit slot r * slots / kRoundRequests, so the
    // rounds spread over the whole trace. The seed shuffles the
    // requests between two rounds requests, so every seed shows the
    // scheduler the same traffic at every round.
    std::vector<int> picks;
    for (int v = 0; v < n; ++v)
        picks.push_back(v);
    rng.shuffle(picks);
    std::vector<std::pair<double, int>> slots;
    for (int v = 0; v < n; ++v) {
        for (int k = 0; k + 1 < counts[v]; ++k)
            slots.emplace_back((k + 0.5) / (counts[v] - 1), v);
    }
    std::sort(slots.begin(), slots.end());
    std::vector<bool> roundAfter(n + slots.size(), false);
    for (size_t r = 0; r < static_cast<size_t>(kRoundRequests); ++r) {
        roundAfter[picks.size() - 1] = true;
        const size_t begin = r * slots.size() / kRoundRequests;
        const size_t end = (r + 1) * slots.size() / kRoundRequests;
        std::vector<int> block;
        for (size_t i = begin; i < end; ++i)
            block.push_back(slots[i].second);
        rng.shuffle(block);
        picks.insert(picks.end(), block.begin(), block.end());
    }

    std::vector<TraceRequest> trace;
    for (size_t i = 0; i < picks.size(); ++i) {
        TraceRequest tune;
        tune.variant = picks[i];
        tune.line = variants[picks[i]].requestLine();
        trace.push_back(std::move(tune));
        if (roundAfter[i]) {
            TraceRequest rounds;
            rounds.rounds = true;
            rounds.line = "{\"op\":\"rounds\",\"n\":1}";
            trace.push_back(std::move(rounds));
        }
    }
    return trace;
}

} // namespace perfbench
