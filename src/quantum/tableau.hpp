/**
 * @file
 * CHP-style stabilizer tableau simulator, word-parallel edition.
 *
 * Implements the Aaronson-Gottesman binary tableau representation of
 * stabilizer states: n destabilizer rows and n stabilizer rows, each
 * holding X and Z components plus a sign bit. All Clifford gates used
 * by the surface code circuits (H, S, CNOT, CZ, Paulis, preparation
 * and Z-basis measurement) are supported.
 *
 * Layout: the bit matrices are stored *column-major* — for every
 * qubit column q there is one bit-vector over the 2n generator rows
 * (row r lives at bit r%64 of word r/64). A gate on qubit q touches
 * only columns q (and its partner), so each gate is O(2n/64) whole-
 * word operations instead of 2n per-bit get/set round trips; the
 * sign row is a bit-vector updated with the same word ops. The
 * kernels are plain std::uint64_t loops: the tableau is a
 * validation oracle, not a hot path, so it has no per-ISA clones.
 *
 * Random measurement collapses do every required rowsum
 * simultaneously via a row-mask (one XOR per column word) with the
 * Z4 phase tracked in two carry-save bit planes, skipping the
 * columns where the pivot row and its destabilizer partner are
 * both the identity. Deterministic outcomes (and expectation
 * values) are computed without mutating or copying the tableau
 * using word-wide prefix-parity accumulation, with popcounts
 * folding the per-row phase counters at the end.
 *
 * The tableau is the ground-truth quantum substrate: the
 * surface-code syndrome circuits in src/qecc are executed against it
 * in unit tests to validate that they detect exactly the errors they
 * should.
 */

#ifndef QUEST_QUANTUM_TABLEAU_HPP
#define QUEST_QUANTUM_TABLEAU_HPP

#include <cstdint>
#include <vector>

#include "pauli.hpp"
#include "sim/random.hpp"

namespace quest::quantum {

/** A stabilizer state on n qubits, initialized to |0...0>. */
class Tableau
{
  public:
    /** Create the n-qubit |0...0> state. */
    explicit Tableau(std::size_t num_qubits);

    std::size_t numQubits() const { return _n; }

    /** @name Clifford gates. */
    ///@{
    void h(std::size_t q);
    void s(std::size_t q);
    void sdg(std::size_t q);
    void x(std::size_t q);
    void y(std::size_t q);
    void z(std::size_t q);
    void cnot(std::size_t control, std::size_t target);
    void cz(std::size_t a, std::size_t b);
    void swapQubits(std::size_t a, std::size_t b);
    ///@}

    /** Apply an n-qubit Pauli error (phase ignored; errors are ±1). */
    void applyPauli(const PauliString &p);

    /**
     * Measure qubit q in the Z basis.
     * @param rng Source of randomness for non-deterministic outcomes.
     * @return the classical outcome (0 or 1).
     */
    bool measureZ(std::size_t q, sim::Rng &rng);

    /**
     * Collapse qubit q onto the given Z outcome *if* its measurement
     * would be random; a deterministic qubit is left untouched (its
     * outcome may disagree with the argument).
     * @return true when the state collapsed (outcome was random).
     */
    bool projectZ(std::size_t q, bool outcome);

    /**
     * @return the outcome of a Z measurement if it is deterministic,
     *         -1 if the outcome would be random. Does not disturb
     *         the state.
     */
    int peekZ(std::size_t q) const;

    /** Reset qubit q to |0> (measure and flip as needed). */
    void reset(std::size_t q, sim::Rng &rng);

    /** Extract stabilizer generator i (0 <= i < n) as a PauliString. */
    PauliString stabilizer(std::size_t i) const;

    /** Extract destabilizer generator i as a PauliString. */
    PauliString destabilizer(std::size_t i) const;

    /**
     * @return +1/-1 if the given Pauli operator is a deterministic
     *         stabilizer/anti-stabilizer of the state, 0 if its
     *         expectation is zero (random measurement outcome).
     *
     * Const-safe and allocation-free in steady state: the working
     * row masks and phase planes live in reusable thread_local
     * scratch, so concurrent expectation() calls on a shared
     * tableau never contend or copy the state.
     */
    int expectation(const PauliString &p) const;

    /** Internal consistency check: rows preserve commutation algebra. */
    bool checkInvariants() const;

  private:
    std::size_t _n;
    std::size_t _rw; ///< words per column: ceil(2n/64)

    // Column-major bit matrices: qubit column q occupies words
    // [q*_rw, (q+1)*_rw); bit r of the vector is generator row r.
    // Rows 0..n-1: destabilizers; n..2n-1: stabilizers. Bits >= 2n
    // are always zero — all updates are row-masked linear ops, so
    // the invariant is preserved.
    std::vector<std::uint64_t> _x;
    std::vector<std::uint64_t> _z;
    std::vector<std::uint64_t> _r; ///< sign bit-vector (1 == -1)

    std::uint64_t *xcol(std::size_t q) { return _x.data() + q * _rw; }
    std::uint64_t *zcol(std::size_t q) { return _z.data() + q * _rw; }
    const std::uint64_t *xcol(std::size_t q) const
    {
        return _x.data() + q * _rw;
    }
    const std::uint64_t *zcol(std::size_t q) const
    {
        return _z.data() + q * _rw;
    }

    bool getX(std::size_t row, std::size_t col) const;
    bool getZ(std::size_t row, std::size_t col) const;
    void setX(std::size_t row, std::size_t col, bool v);
    void setZ(std::size_t row, std::size_t col, bool v);

    /**
     * Word-parallel scan of the stabilizer strip of X column q:
     * @return the lowest stabilizer row with an X bit in column q
     *         (the collapse pivot), or npos when Z_q commutes with
     *         every stabilizer (deterministic outcome).
     */
    std::size_t findPivot(std::size_t q) const;

    /**
     * Multiply stabilizer row p into every row selected by the mask
     * (the batched CHP rowsum of a random-outcome collapse), then
     * rewrite row p-n := old row p and row p := Z_q with the
     * measured sign.
     */
    void collapseRandom(std::size_t q, std::size_t p, bool outcome);

    /**
     * Z4 phase of the ordered product of the stabilizer rows
     * selected by `m_src` (ascending row order, identity start),
     * including their sign bits. When `expect` is non-null the
     * product's Pauli bits are asserted to equal `expect` column by
     * column (the expectation() reconstruction check).
     */
    int selectedProductPhase(const std::uint64_t *m_src,
                             const PauliString *expect) const;

    /**
     * Row mask of the stabilizer rows n+i for every destabilizer
     * row i < n selected in `rows` (the destabilizer half shifted
     * up by n), written into thread_local scratch; @return the
     * scratch span. For an operator P that commutes with every
     * stabilizer, passing the rows that anticommute with P selects
     * the stabilizers whose product is ±P.
     */
    const std::uint64_t *partnerStabilizers(const std::uint64_t *rows)
        const;

    /** Deterministic Z outcome of qubit q (no state disturbance). */
    bool deterministicZ(std::size_t q) const;
};

} // namespace quest::quantum

#endif // QUEST_QUANTUM_TABLEAU_HPP
