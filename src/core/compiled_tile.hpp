/**
 * @file
 * A tile configuration, compiled once (paper Section 1; DESIGN.md
 * §20).
 *
 * Every MCE replays the same QECC microcode for its tile, so what a
 * tile derives from its configuration -- the lattice, the validated
 * base schedule, its compiled extractor program and the matcher's
 * distance tables -- is compiled once per MasterController and shared
 * read-only by every tile, matcher and streamer of that system. Set-up
 * time and table memory then grow with the number of distinct
 * configurations, not with the number of tiles. What changes at run
 * time, mask edits included, stays with each Mce.
 */

#ifndef QUEST_CORE_COMPILED_TILE_HPP
#define QUEST_CORE_COMPILED_TILE_HPP

#include <memory>

#include "decode/mwpm_decoder.hpp"
#include "microcode.hpp"
#include "qecc/extractor.hpp"
#include "qecc/lattice.hpp"
#include "qecc/schedule.hpp"

namespace quest::core {

struct MceConfig;

/** The immutable, shareable part of one tile configuration. */
class CompiledTile
{
  public:
    /** Compile the tile `cfg` describes. */
    static std::shared_ptr<const CompiledTile>
    compile(const MceConfig &cfg)
    {
        return std::make_shared<const CompiledTile>(cfg);
    }

    /** Prefer compile(); public for make_shared. */
    explicit CompiledTile(const MceConfig &cfg);

    // The pieces point at each other (and decoders and extractors
    // at them): never copy or move.
    CompiledTile(const CompiledTile &) = delete;
    CompiledTile &operator=(const CompiledTile &) = delete;

    /**
     * True when a tile configured by `cfg` compiles to this tile:
     * the same lattice shape, protocol, technology and microcode
     * design. Every other field of the config is per tile.
     */
    bool compiledFrom(const MceConfig &cfg) const;

    const qecc::Lattice &lattice() const { return _lattice; }

    /** The canonical (unmasked) round schedule. */
    const qecc::RoundSchedule &baseSchedule() const
    {
        return _baseSchedule;
    }

    /** The base schedule's compiled extractor program. */
    const qecc::ExtractorProgram &program() const { return _program; }

    /** The matcher's distance tables for the lattice. */
    const decode::MatchGeometry &geometry() const { return _geometry; }

    /** Bits per streamed uop slot under the microcode design. */
    std::size_t uopBits() const { return _uopBits; }

    /** Stored microcode image size under the design. */
    std::size_t imageBits() const { return _imageBits; }

  private:
    qecc::Protocol _protocol;
    tech::Technology _technology;
    MicrocodeDesign _microcodeDesign;

    qecc::Lattice _lattice;
    qecc::RoundSchedule _baseSchedule;
    qecc::ExtractorProgram _program;
    decode::MatchGeometry _geometry;
    std::size_t _uopBits = 0;
    std::size_t _imageBits = 0;
};

} // namespace quest::core

#endif // QUEST_CORE_COMPILED_TILE_HPP
