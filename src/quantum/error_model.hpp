/**
 * @file
 * Pauli error channels.
 *
 * Models the noise processes the paper assumes for superconducting
 * qubits: depolarizing noise after two-qubit gates, idle
 * decoherence between QECC rounds, and classical
 * measurement/preparation flips. Rates follow the paper's
 * evaluation points (physical error rates of 1e-3, 1e-4 and 1e-5
 * per error correction cycle).
 *
 * ErrorRates holds only the rates some noise site draws. The
 * extraction circuits place no noise site after a single-qubit
 * gate, so there is no single-qubit gate rate; a circuit-level
 * model that adds such sites adds its rate with them.
 */

#ifndef QUEST_QUANTUM_ERROR_MODEL_HPP
#define QUEST_QUANTUM_ERROR_MODEL_HPP

#include "batch_pauli_frame.hpp"
#include "pauli.hpp"
#include "pauli_frame.hpp"
#include "sim/batch_random.hpp"
#include "sim/random.hpp"

namespace quest::quantum {

/**
 * Per-operation physical error probabilities. Initialise it with
 * designated fields (ErrorRates{.idle = p, .meas = p}), so a rate
 * cannot silently shift position.
 */
struct ErrorRates
{
    double idle = 0.0;     ///< per-qubit error per QECC round while idle
    double gate2 = 0.0;    ///< depolarizing rate after 2-qubit gates
    double prep = 0.0;     ///< preparation flip probability
    double meas = 0.0;     ///< measurement readout flip probability

    /**
     * Uniform model used throughout the paper's evaluation: a single
     * physical error rate applied to every operation.
     */
    static ErrorRates
    uniform(double p)
    {
        return ErrorRates{.idle = p, .gate2 = p, .prep = p, .meas = p};
    }

    /** Ideal (noise-free) execution. */
    static ErrorRates none() { return ErrorRates{}; }
};

/**
 * Reject non-finite rates with a diagnostic (SimError). A NaN rate
 * has no integer Bernoulli threshold (sim::bernoulliThreshold), so
 * the channels refuse it up front; finite rates outside [0, 1] keep
 * the Rng::bernoulli short-circuits.
 */
void checkRates(const ErrorRates &rates);

/**
 * One depolarize1 site drawn from `rng`: with probability p, a
 * uniform non-identity Pauli on q. `p` is a double or a precompiled
 * sim::BernoulliRate; both draw the same stream. Shared by
 * ErrorChannel and the extractor's round loop, which runs it on a
 * local copy of the channel's Rng.
 */
template <typename Rate>
inline void
depolarize1(PauliFrame &frame, std::size_t q, sim::Rng &rng, Rate p)
{
    static constexpr Pauli paulis[3] = {Pauli::X, Pauli::Y, Pauli::Z};
    if (rng.bernoulli(p))
        frame.inject(q, paulis[rng.uniformInt(3)]);
}

/**
 * One depolarize2 site drawn from `rng`: with probability p, one of
 * the 15 non-identity two-qubit Paulis, each with probability p/15.
 */
template <typename Rate>
inline void
depolarize2(PauliFrame &frame, std::size_t a, std::size_t b,
            sim::Rng &rng, Rate p)
{
    if (!rng.bernoulli(p))
        return;
    const std::uint64_t k = rng.uniformInt(15) + 1;
    frame.inject(a, static_cast<Pauli>(k & 3u));
    frame.inject(b, static_cast<Pauli>((k >> 2) & 3u));
}

/** Samples Pauli errors into a PauliFrame. */
class ErrorChannel
{
  public:
    /** @throws sim::SimError on a non-finite rate (checkRates). */
    ErrorChannel(ErrorRates rates, sim::Rng &rng)
        : _rates(rates), _rng(&rng)
    {
        checkRates(rates);
    }

    const ErrorRates &rates() const { return _rates; }

    /**
     * Swap the configured rates (e.g. the decoder-deadline fallback
     * temporarily stretching the noise of a late-corrected tile).
     * @throws sim::SimError on a non-finite rate (checkRates).
     */
    void
    setRates(const ErrorRates &rates)
    {
        checkRates(rates);
        _rates = rates;
    }

    /**
     * The noise stream the channel draws from. A round loop copies
     * it into a local, draws from the copy and assigns it back, so
     * the stream continues exactly as if the channel had drawn.
     */
    sim::Rng &rng() const { return *_rng; }

    /** Uniform non-identity Pauli with probability p. */
    void
    depolarize1(PauliFrame &frame, std::size_t q, double p)
    {
        quantum::depolarize1(frame, q, *_rng, p);
    }

    /**
     * Two-qubit depolarizing channel: one of the 15 non-identity
     * two-qubit Paulis, each with probability p/15.
     */
    void
    depolarize2(PauliFrame &frame, std::size_t a, std::size_t b,
                double p)
    {
        quantum::depolarize2(frame, a, b, *_rng, p);
    }

    /** @name Convenience wrappers using the configured rates. */
    ///@{
    void
    afterGate2(PauliFrame &frame, std::size_t a, std::size_t b)
    {
        depolarize2(frame, a, b, _rates.gate2);
    }

    void
    idle(PauliFrame &frame, std::size_t q)
    {
        depolarize1(frame, q, _rates.idle);
    }

    void
    afterPrep(PauliFrame &frame, std::size_t q)
    {
        // A preparation error leaves the qubit flipped: an X error.
        if (_rng->bernoulli(_rates.prep))
            frame.injectX(q);
    }

    /** @return true when the readout value should be flipped. */
    bool
    measurementFlip()
    {
        return _rng->bernoulli(_rates.meas);
    }
    ///@}

  private:
    ErrorRates _rates;
    sim::Rng *_rng;
};

/**
 * Transposed Bernoulli sampling for the bit-parallel batch engine:
 * 64 per-lane generators, lane t seeded from
 * Rng::substream(seed, first_trial + t) — the exact substream the
 * scalar sweep hands trial first_trial + t — drawn in lane order at
 * every noise site so each lane's draw sequence is identical to the
 * scalar ErrorChannel's. The sampled per-lane hits are packed into
 * 64-bit masks and injected with one word op per error plane.
 */
class BatchErrorChannel
{
  public:
    /**
     * @param rates Per-operation error probabilities.
     * @param seed Sweep seed (the scalar sweep's substream seed).
     * @param first_trial Trial index carried by lane 0; lane t is
     *                    trial first_trial + t. A batch sweep uses
     *                    first_trial = 64 * batch_index.
     * @throws sim::SimError on a non-finite rate (checkRates).
     */
    BatchErrorChannel(ErrorRates rates, std::uint64_t seed,
                      std::uint64_t first_trial);

    const ErrorRates &rates() const { return _rates; }

    /** @throws sim::SimError on a non-finite rate (checkRates). */
    void
    setRates(const ErrorRates &rates)
    {
        checkRates(rates);
        _rates = rates;
    }

    /** Uniform non-identity Pauli per lane with probability p. */
    void depolarize1(BatchPauliFrame &frame, std::size_t q, double p);

    /** Two-qubit depolarizing channel, 15 non-identity Paulis. */
    void depolarize2(BatchPauliFrame &frame, std::size_t a,
                     std::size_t b, double p);

    /** @name Convenience wrappers using the configured rates. */
    ///@{
    void
    afterGate2(BatchPauliFrame &frame, std::size_t a, std::size_t b)
    {
        depolarize2(frame, a, b, _rates.gate2);
    }

    void
    idle(BatchPauliFrame &frame, std::size_t q)
    {
        depolarize1(frame, q, _rates.idle);
    }

    void afterPrep(BatchPauliFrame &frame, std::size_t q);

    /** Lanes whose next readout value should be flipped. */
    std::uint64_t measurementFlipMask();
    ///@}

  private:
    ErrorRates _rates;
    sim::BatchRng _rngs;
};

} // namespace quest::quantum

#endif // QUEST_QUANTUM_ERROR_MODEL_HPP
