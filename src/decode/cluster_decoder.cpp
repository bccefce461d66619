#include "cluster_decoder.hpp"

#include <algorithm>
#include <numeric>

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace quest::decode {

namespace {

/** Union-find forest over event indices, with parity tracking. */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n)
        : _parent(n), _rank(n, 0), _odd(n, 1), _boundary(n, 0)
    {
        std::iota(_parent.begin(), _parent.end(), 0);
    }

    std::size_t
    find(std::size_t x)
    {
        while (_parent[x] != x) {
            _parent[x] = _parent[_parent[x]];
            x = _parent[x];
        }
        return x;
    }

    void
    unite(std::size_t a, std::size_t b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        if (_rank[a] < _rank[b])
            std::swap(a, b);
        _parent[b] = a;
        if (_rank[a] == _rank[b])
            ++_rank[a];
        _odd[a] = _odd[a] ^ _odd[b];
        _boundary[a] = _boundary[a] | _boundary[b];
    }

    void markBoundary(std::size_t x) { _boundary[find(x)] = 1; }

    /** Neutral == can stop growing: even parity or open boundary. */
    bool
    neutral(std::size_t x)
    {
        const std::size_t r = find(x);
        return !_odd[r] || _boundary[r];
    }

  private:
    std::vector<std::size_t> _parent;
    std::vector<std::uint8_t> _rank;
    std::vector<std::uint8_t> _odd;
    std::vector<std::uint8_t> _boundary;
};

} // namespace

void
ClusterDecoder::decodeType(const std::vector<DetectionEvent> &events,
                           const MaskedChecks &masked,
                           std::vector<std::uint8_t> &bits,
                           ClusterStats &stats) const
{
    const std::size_t n = events.size();
    if (n == 0)
        return;

    UnionFind uf(n);
    // Each event's boundary reach, read once rather than per step.
    std::vector<std::uint64_t> boundary(n);
    for (std::size_t i = 0; i < n; ++i)
        boundary[i] = _matcher->boundaryDistance(events[i], &masked);

    // Grow all non-neutral clusters in lockstep by one unit of
    // space-time radius per step; merge clusters whose balls touch
    // and absorb boundaries that come within reach. At radius r,
    // events i and j join when d(i,j) <= 2r (both balls grew), and
    // a cluster touches the boundary when some event is within r.
    std::size_t radius = 0;
    auto all_neutral = [&] {
        for (std::size_t i = 0; i < n; ++i)
            if (!uf.neutral(i))
                return false;
        return true;
    };

    // Upper bound on useful radius: the lattice diameter in data
    // qubits plus the time extent.
    std::size_t max_round = 0;
    for (const auto &e : events)
        max_round = std::max(max_round, e.round);
    const qecc::Lattice &lattice = _matcher->lattice();
    const std::size_t radius_cap = lattice.rows() + lattice.cols()
        + max_round + 2;

    while (!all_neutral()) {
        ++radius;
        ++stats.growthSteps;
        QUEST_ASSERT(radius <= radius_cap,
                     "cluster growth failed to converge");
        for (std::size_t i = 0; i < n; ++i) {
            if (uf.neutral(i))
                continue;
            for (std::size_t j = 0; j < n; ++j) {
                if (j == i)
                    continue;
                if (_matcher->distance(events[i], events[j])
                        <= 2 * radius)
                    uf.unite(i, j);
            }
            if (boundary[i] <= radius)
                uf.markBoundary(i);
        }
    }

    // Collect clusters and resolve each with the exact matcher.
    std::vector<std::vector<std::size_t>> clusters;
    {
        std::vector<int> slot(n, -1);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t root = uf.find(i);
            if (slot[root] < 0) {
                slot[root] = int(clusters.size());
                clusters.emplace_back();
            }
            clusters[std::size_t(slot[root])].push_back(i);
        }
    }
    stats.clusters += clusters.size();
    for (const auto &cluster : clusters)
        stats.largestCluster =
            std::max(stats.largestCluster, cluster.size());

    // Per-thread scratch: clusters are resolved thousands of times
    // per sweep trial, so keep the event buffer warm.
    static thread_local std::vector<DetectionEvent> local;
    for (const auto &cluster : clusters) {
        local.clear();
        local.reserve(cluster.size());
        for (std::size_t idx : cluster)
            local.push_back(events[idx]);
        _matcher->matchInto(local, bits, &masked);
    }
}

Correction
ClusterDecoder::decode(const DetectionEvents &events) const
{
    ClusterStats stats;
    return decode(events, stats);
}

Correction
ClusterDecoder::decode(const DetectionEvents &events,
                       ClusterStats &stats) const
{
    QUEST_TRACE_SCOPE("decode", "cluster_decode");
    ++_mDecodes;

    const std::size_t sites = _matcher->lattice().numQubits();
    std::vector<std::uint8_t> xflip(sites, 0);
    std::vector<std::uint8_t> zflip(sites, 0);

    // The mask cannot change inside one decode, so every boundary
    // weight and path of both types reads one snapshot of it.
    const MaskedChecks masked = _matcher->maskedChecks();
    const std::size_t clusters_before = stats.clusters;
    const std::size_t growth_before = stats.growthSteps;
    decodeType(events.zEvents, masked, xflip, stats);
    decodeType(events.xEvents, masked, zflip, stats);
    _mClusters += stats.clusters - clusters_before;
    _mGrowthSteps += stats.growthSteps - growth_before;
    if (stats.largestCluster > 0)
        _mClusterSize.record(stats.largestCluster);

    return Correction::fromFlipMaps(xflip, zflip);
}

} // namespace quest::decode
