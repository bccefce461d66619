#include "error_model.hpp"

#include <bit>
#include <cmath>

namespace quest::quantum {

void
checkRates(const ErrorRates &rates)
{
    const struct
    {
        const char *name;
        double value;
    } fields[] = {
        {"idle", rates.idle}, {"gate1", rates.gate1},
        {"gate2", rates.gate2}, {"prep", rates.prep},
        {"meas", rates.meas},
    };
    for (const auto &f : fields)
        if (!std::isfinite(f.value))
            sim::fatal("error rate %s = %g is not finite", f.name,
                       f.value);
}

BatchErrorChannel::BatchErrorChannel(ErrorRates rates,
                                     std::uint64_t seed,
                                     std::uint64_t first_trial)
    : _rates(rates), _rngs(seed, first_trial)
{
    checkRates(rates);
}

void
BatchErrorChannel::depolarize1(BatchPauliFrame &frame, std::size_t q,
                               double p)
{
    std::uint64_t hits = _rngs.bernoulliMask(p);
    if (hits == 0)
        return;
    // Only hit lanes draw the Pauli choice — scalar draw parity.
    // The per-lane streams are independent, so resolving the hits
    // after the Bernoulli pass keeps each lane's own draw order
    // (bernoulli, then uniformInt) identical to the scalar channel.
    std::uint64_t xm = 0, zm = 0;
    do {
        const int t = std::countr_zero(hits);
        hits &= hits - 1;
        switch (_rngs.uniformInt(std::size_t(t), 3)) {
          case 0: xm |= std::uint64_t(1) << t; break;
          case 1:
            xm |= std::uint64_t(1) << t;
            zm |= std::uint64_t(1) << t;
            break;
          case 2: zm |= std::uint64_t(1) << t; break;
        }
    } while (hits);
    frame.injectMasks(q, xm, zm);
}

void
BatchErrorChannel::depolarize2(BatchPauliFrame &frame, std::size_t a,
                               std::size_t b, double p)
{
    std::uint64_t hits = _rngs.bernoulliMask(p);
    if (hits == 0)
        return;
    std::uint64_t xa = 0, za = 0, xb = 0, zb = 0;
    do {
        const int t = std::countr_zero(hits);
        hits &= hits - 1;
        const std::uint64_t bit = std::uint64_t(1) << t;
        const std::uint64_t k =
            _rngs.uniformInt(std::size_t(t), 15) + 1;
        // Pauli encoding is (x bit, z bit), matching the scalar
        // channel's static_cast<Pauli>(k & 3) / ((k >> 2) & 3).
        xa |= (k & 1u) ? bit : 0;
        za |= (k & 2u) ? bit : 0;
        xb |= (k & 4u) ? bit : 0;
        zb |= (k & 8u) ? bit : 0;
    } while (hits);
    frame.injectMasks(a, xa, za);
    frame.injectMasks(b, xb, zb);
}

void
BatchErrorChannel::afterPrep(BatchPauliFrame &frame, std::size_t q)
{
    // A preparation error leaves the qubit flipped: an X error.
    frame.injectX(q, _rngs.bernoulliMask(_rates.prep));
}

std::uint64_t
BatchErrorChannel::measurementFlipMask()
{
    return _rngs.bernoulliMask(_rates.meas);
}

} // namespace quest::quantum
