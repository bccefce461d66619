#include "detection.hpp"

#include <algorithm>
#include <bit>

#include "sim/logging.hpp"

namespace quest::decode {

using qecc::Coord;
using qecc::SiteType;

DetectionEvents
extractDetectionEvents(const std::vector<qecc::SyndromeRound> &history,
                       const qecc::SyndromeExtractor &extractor)
{
    return extractDetectionEventsWindow(history, extractor, nullptr, 0);
}

DetectionEvents
extractDetectionEventsWindow(
    const std::vector<qecc::SyndromeRound> &history,
    const qecc::SyndromeExtractor &extractor,
    const qecc::SyndromeRound *baseline, std::size_t first_round)
{
    DetectionEvents out;
    const auto &x_anc = extractor.xAncillas();
    const auto &z_anc = extractor.zAncillas();

    for (std::size_t r = 0; r < history.size(); ++r) {
        const auto &round = history[r];
        QUEST_ASSERT(round.xFlips.size() == x_anc.size()
                     && round.zFlips.size() == z_anc.size(),
                     "syndrome round %zu has inconsistent width", r);
        const qecc::SyndromeRound *prev =
            r == 0 ? baseline : &history[r - 1];
        for (std::size_t i = 0; i < x_anc.size(); ++i) {
            const std::uint8_t p = prev ? prev->xFlips[i] : 0;
            if (round.xFlips[i] != p)
                out.xEvents.push_back(DetectionEvent{
                    first_round + r, x_anc[i], SiteType::XAncilla});
        }
        for (std::size_t i = 0; i < z_anc.size(); ++i) {
            const std::uint8_t p = prev ? prev->zFlips[i] : 0;
            if (round.zFlips[i] != p)
                out.zEvents.push_back(DetectionEvent{
                    first_round + r, z_anc[i], SiteType::ZAncilla});
        }
    }
    return out;
}

std::vector<DetectionEvents>
extractDetectionEventsBatch(
    const std::vector<qecc::BatchSyndromeRound> &history,
    const qecc::SyndromeExtractor &extractor)
{
    std::vector<DetectionEvents> out;
    extractDetectionEventsBatchInto(history, extractor, nullptr, 0, out);
    return out;
}

void
extractDetectionEventsBatchInto(
    const std::vector<qecc::BatchSyndromeRound> &history,
    const qecc::SyndromeExtractor &extractor,
    const qecc::BatchSyndromeRound *baseline, std::size_t first_round,
    std::vector<DetectionEvents> &out)
{
    constexpr std::size_t lanes = quantum::BatchPauliFrame::lanes;
    out.resize(lanes);
    const auto &x_anc = extractor.xAncillas();
    const auto &z_anc = extractor.zAncillas();

    // Two passes over the flip words: count events per lane first so
    // every per-lane vector is reserved exactly once, then fill. At
    // physical error rates events are sparse, so the extraction cost
    // is dominated by allocator traffic, not the bit scans — the
    // recomputed XORs in pass 2 are noise by comparison.
    thread_local std::vector<std::uint32_t> nx, nz;
    nx.assign(lanes, 0);
    nz.assign(lanes, 0);
    for (std::size_t r = 0; r < history.size(); ++r) {
        const auto &round = history[r];
        QUEST_ASSERT(round.xFlips.size() == x_anc.size()
                         && round.zFlips.size() == z_anc.size(),
                     "syndrome round %zu has inconsistent width", r);
        const qecc::BatchSyndromeRound *prev =
            r == 0 ? baseline : &history[r - 1];
        for (std::size_t i = 0; i < x_anc.size(); ++i) {
            std::uint64_t diff =
                round.xFlips[i] ^ (prev ? prev->xFlips[i] : 0);
            while (diff) {
                ++nx[std::size_t(std::countr_zero(diff))];
                diff &= diff - 1;
            }
        }
        for (std::size_t i = 0; i < z_anc.size(); ++i) {
            std::uint64_t diff =
                round.zFlips[i] ^ (prev ? prev->zFlips[i] : 0);
            while (diff) {
                ++nz[std::size_t(std::countr_zero(diff))];
                diff &= diff - 1;
            }
        }
    }
    for (std::size_t t = 0; t < lanes; ++t) {
        out[t].xEvents.clear();
        out[t].zEvents.clear();
        out[t].xEvents.reserve(nx[t]);
        out[t].zEvents.reserve(nz[t]);
    }

    for (std::size_t r = 0; r < history.size(); ++r) {
        const auto &round = history[r];
        const qecc::BatchSyndromeRound *prev =
            r == 0 ? baseline : &history[r - 1];
        for (std::size_t i = 0; i < x_anc.size(); ++i) {
            std::uint64_t diff =
                round.xFlips[i] ^ (prev ? prev->xFlips[i] : 0);
            while (diff) {
                const int t = std::countr_zero(diff);
                diff &= diff - 1;
                out[std::size_t(t)].xEvents.push_back(DetectionEvent{
                    first_round + r, x_anc[i], SiteType::XAncilla});
            }
        }
        for (std::size_t i = 0; i < z_anc.size(); ++i) {
            std::uint64_t diff =
                round.zFlips[i] ^ (prev ? prev->zFlips[i] : 0);
            while (diff) {
                const int t = std::countr_zero(diff);
                diff &= diff - 1;
                out[std::size_t(t)].zEvents.push_back(DetectionEvent{
                    first_round + r, z_anc[i], SiteType::ZAncilla});
            }
        }
    }
}

void
Correction::merge(const Correction &other)
{
    // XOR semantics: a qubit flipped twice is not flipped. Append,
    // sort, and cancel equal pairs -- O((n+m)log(n+m)) against the
    // old find+erase which was quadratic on every pipeline decode
    // and every streaming commit. The result is canonical (sorted,
    // duplicate-free), which also canonicalizes any repeated entries
    // already present on either side, matching the parity semantics
    // of the old implementation exactly.
    auto xor_into = [](std::vector<std::size_t> &dst,
                       const std::vector<std::size_t> &src) {
        dst.insert(dst.end(), src.begin(), src.end());
        std::sort(dst.begin(), dst.end());
        std::size_t w = 0;
        for (std::size_t r = 0; r < dst.size();) {
            if (r + 1 < dst.size() && dst[r] == dst[r + 1])
                r += 2; // even multiplicity cancels
            else
                dst[w++] = dst[r++];
        }
        dst.resize(w);
    };
    xor_into(xFlips, other.xFlips);
    xor_into(zFlips, other.zFlips);
}

Correction
Correction::fromFlipMaps(const std::vector<std::uint8_t> &xflip,
                         const std::vector<std::uint8_t> &zflip)
{
    Correction out;
    for (std::size_t q = 0; q < xflip.size(); ++q) {
        if (xflip[q])
            out.xFlips.push_back(q);
        if (zflip[q])
            out.zFlips.push_back(q);
    }
    return out;
}

void
applyCorrection(quantum::PauliFrame &frame, const Correction &corr)
{
    for (std::size_t q : corr.xFlips)
        frame.injectX(q);
    for (std::size_t q : corr.zFlips)
        frame.injectZ(q);
}

} // namespace quest::decode
