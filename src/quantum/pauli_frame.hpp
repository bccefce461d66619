/**
 * @file
 * Pauli-frame error tracker.
 *
 * For lattice-scale surface-code simulation a full stabilizer
 * tableau is unnecessary: because every circuit we run is Clifford
 * and every noise process is Pauli, it suffices to track the Pauli
 * *error frame* relative to the ideal execution. Each qubit carries
 * an (x, z) error bit pair that is propagated through the gates of
 * the syndrome-extraction circuit; a Z-basis measurement outcome is
 * flipped relative to ideal exactly when the qubit's X error bit is
 * set. This is O(1) per gate and scales to millions of qubits.
 *
 * Storage is bit-packed: qubit q's X (Z) error bit lives at bit
 * q%64 of word q/64 of the X (Z) plane (BatchPauliFrame instead
 * gives each qubit a word of 64 trials). Whole-frame operations
 * (weight, clear, toPauliString) are
 * word ops; the per-gate accessors are branch-free mask updates
 * with debug-only bounds checks (QUEST_DEBUG_ASSERT) instead of the
 * old bounds-checked `.at()` round trips.
 */

#ifndef QUEST_QUANTUM_PAULI_FRAME_HPP
#define QUEST_QUANTUM_PAULI_FRAME_HPP

#include <cstdint>
#include <vector>

#include "pauli.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace quest::quantum {

/** Tracks the Pauli error on each qubit relative to ideal execution. */
class PauliFrame
{
  public:
    explicit PauliFrame(std::size_t num_qubits)
        : _n(num_qubits),
          _xerr((num_qubits + 63) / 64, 0),
          _zerr((num_qubits + 63) / 64, 0)
    {}

    std::size_t numQubits() const { return _n; }

    /** @name Error injection. */
    ///@{
    void
    injectX(std::size_t q)
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        _xerr[q >> 6] ^= bit(q);
    }

    void
    injectZ(std::size_t q)
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        _zerr[q >> 6] ^= bit(q);
    }

    void
    injectY(std::size_t q)
    {
        injectX(q);
        injectZ(q);
    }

    void
    inject(std::size_t q, Pauli p)
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        // Pauli encodes (x bit, z bit) directly; no branches.
        const auto v = static_cast<std::uint64_t>(p);
        _xerr[q >> 6] ^= (v & 1u) << (q & 63);
        _zerr[q >> 6] ^= ((v >> 1) & 1u) << (q & 63);
    }
    ///@}

    /** @name Clifford propagation (Heisenberg picture). */
    ///@{
    void
    h(std::size_t q)
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        // Swap the X and Z bits: toggle both when they differ.
        const std::uint64_t diff =
            (_xerr[q >> 6] ^ _zerr[q >> 6]) & bit(q);
        _xerr[q >> 6] ^= diff;
        _zerr[q >> 6] ^= diff;
    }

    void
    s(std::size_t q)
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        // S X S^dg = Y: an X error gains a Z component.
        _zerr[q >> 6] ^= _xerr[q >> 6] & bit(q);
    }

    void
    cnot(std::size_t control, std::size_t target)
    {
        QUEST_DEBUG_ASSERT(control < _n && target < _n,
                           "bad CNOT operands (%zu, %zu)", control,
                           target);
        // X errors copy control -> target; Z errors copy target -> control.
        _xerr[target >> 6] ^= std::uint64_t(testBit(_xerr, control))
            << (target & 63);
        _zerr[control >> 6] ^= std::uint64_t(testBit(_zerr, target))
            << (control & 63);
    }

    void
    cz(std::size_t a, std::size_t b)
    {
        QUEST_DEBUG_ASSERT(a < _n && b < _n,
                           "bad CZ operands (%zu, %zu)", a, b);
        // X on one qubit picks up Z on the other.
        const bool xa = testBit(_xerr, a);
        const bool xb = testBit(_xerr, b);
        _zerr[b >> 6] ^= std::uint64_t(xa) << (b & 63);
        _zerr[a >> 6] ^= std::uint64_t(xb) << (a & 63);
    }
    ///@}

    /**
     * Z-basis measurement: @return true when the recorded outcome is
     * flipped relative to the ideal circuit (i.e. the X error bit).
     */
    bool
    measureZFlip(std::size_t q) const
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        return testBit(_xerr, q);
    }

    /** X-basis measurement flip: the Z error bit. */
    bool
    measureXFlip(std::size_t q) const
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        return testBit(_zerr, q);
    }

    /** Preparation discards any accumulated error on the qubit. */
    void
    reset(std::size_t q)
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        _xerr[q >> 6] &= ~bit(q);
        _zerr[q >> 6] &= ~bit(q);
    }

    /** Current error on qubit q. */
    Pauli
    errorAt(std::size_t q) const
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        return makePauli(testBit(_xerr, q), testBit(_zerr, q));
    }

    bool
    xError(std::size_t q) const
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        return testBit(_xerr, q);
    }

    bool
    zError(std::size_t q) const
    {
        QUEST_DEBUG_ASSERT(q < _n, "qubit %zu out of range", q);
        return testBit(_zerr, q);
    }

    /** Number of qubits carrying a non-identity error. */
    std::size_t weight() const;

    /** Clear all error bits. */
    void clear();

    /** The whole frame as a PauliString (for tableau cross-checks). */
    PauliString toPauliString() const;

    /** @name Raw word planes (shared with the batch/tableau kernels). */
    ///@{
    const std::vector<std::uint64_t> &xWords() const { return _xerr; }
    const std::vector<std::uint64_t> &zWords() const { return _zerr; }

    /**
     * Mutable planes for word-wide kernels (the extractor's layer
     * steps). Bits at or past numQubits() must stay clear.
     */
    std::uint64_t *xPlane() { return _xerr.data(); }
    std::uint64_t *zPlane() { return _zerr.data(); }
    ///@}

  private:
    static std::uint64_t
    bit(std::size_t q)
    {
        return std::uint64_t(1) << (q & 63);
    }

    static bool
    testBit(const std::vector<std::uint64_t> &words, std::size_t q)
    {
        return (words[q >> 6] >> (q & 63)) & 1u;
    }

    std::size_t _n;
    std::vector<std::uint64_t> _xerr;
    std::vector<std::uint64_t> _zerr;
};

} // namespace quest::quantum

#endif // QUEST_QUANTUM_PAULI_FRAME_HPP
