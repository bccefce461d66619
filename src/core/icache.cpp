#include "icache.hpp"

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "tech/parameters.hpp"

namespace quest::core {

LogicalInstructionCache::LogicalInstructionCache(
    std::size_t capacity_instructions)
    : _capacity(capacity_instructions),
      _hits("mce.icache.hits", "logical instruction-cache hits"),
      _misses("mce.icache.misses", "logical instruction-cache misses"),
      _busBytes("mce.icache.bus_bytes",
                "global bus bytes spent on logical-block delivery")
{}

void
LogicalInstructionCache::touch(std::uint32_t block_id)
{
    auto it = _index.find(block_id);
    QUEST_ASSERT(it != _index.end(), "touch of non-resident block %u",
                 block_id);
    _lru.splice(_lru.begin(), _lru, it->second);
}

void
LogicalInstructionCache::evictUntilFits(std::size_t need)
{
    while (_resident + need > _capacity && !_lru.empty()) {
        const auto [victim, size] = _lru.back();
        _lru.pop_back();
        _index.erase(victim);
        _resident -= size;
    }
}

ICacheAccess
LogicalInstructionCache::execute(std::uint32_t block_id,
                                 const isa::LogicalTrace &body)
{
    QUEST_TRACE_SCOPE("mce", "icache_execute");
    ICacheAccess out;
    out.instructions = body.size();

    if (!enabled()) {
        // No cache: the whole body streams over the bus every time.
        out.bytesFetched = body.bytes();
        _busBytes += out.bytesFetched;
        ++_misses;
        return out;
    }

    if (_index.contains(block_id)) {
        touch(block_id);
        out.hit = true;
        out.bytesFetched = replayTokenBytes;
        _busBytes += replayTokenBytes;
        ++_hits;
        return out;
    }

    // Miss: stream the body and install it.
    out.bytesFetched = body.bytes();
    _busBytes += out.bytesFetched;
    ++_misses;

    if (body.size() <= _capacity) {
        evictUntilFits(body.size());
        _lru.emplace_front(block_id, body.size());
        _index[block_id] = _lru.begin();
        _resident += body.size();
    }
    return out;
}

} // namespace quest::core
