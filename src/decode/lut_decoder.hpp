/**
 * @file
 * Local lookup-table decoder (paper Section 4.2).
 *
 * "The error decoder collects the syndrome measurement data and
 * performs a limited local error decoding with a lookup table to
 * correct frequently occurring isolated single-qubit errors."
 *
 * The LUT decoder lives inside each MCE and handles only patterns a
 * single data-qubit error can produce:
 *  - two same-round events on checks that share exactly one data
 *    qubit  -> correct that qubit;
 *  - one isolated event whose nearest boundary is one data qubit
 *    away -> correct the boundary qubit;
 *  - one isolated event that repeats at the same check in the next
 *    round -> a measurement flip; no data correction needed.
 * Anything else is left as residual work for the global (MWPM)
 * decoder in the master controller, exactly matching the paper's
 * two-level decode scheme.
 */

#ifndef QUEST_DECODE_LUT_DECODER_HPP
#define QUEST_DECODE_LUT_DECODER_HPP

#include <vector>

#include "detection.hpp"
#include "qecc/lattice.hpp"

namespace quest::decode {

/** Outcome of the local decoding pass. */
struct LocalDecodeResult
{
    Correction correction;          ///< locally resolved corrections
    DetectionEvents residual;       ///< events deferred to the global
    std::size_t resolvedEvents = 0; ///< events consumed locally
};

/** The per-MCE lookup-table decoder. */
class LutDecoder
{
  public:
    explicit LutDecoder(const qecc::Lattice &lattice)
        : _lattice(&lattice)
    {}

    /**
     * Resolve isolated single-error patterns; anything ambiguous is
     * passed through untouched in `residual`.
     *
     * Preconditions (panics otherwise), both of which extraction
     * meets: each type's list is round-major (rounds
     * non-decreasing) and holds at most one event per check and
     * round.
     */
    LocalDecodeResult decodeLocal(const DetectionEvents &events) const;

  private:
    const qecc::Lattice *_lattice;

    void decodeType(const std::vector<DetectionEvent> &events,
                    std::vector<std::size_t> &flips,
                    std::vector<DetectionEvent> &residual,
                    std::size_t &resolved) const;
};

} // namespace quest::decode

#endif // QUEST_DECODE_LUT_DECODER_HPP
