#include "memory_experiment.hpp"

namespace quest::qecc {

MemoryExperiment::MemoryExperiment(std::size_t distance,
                                   Protocol protocol, std::size_t rounds)
    : _rounds(rounds ? rounds : distance),
      _lattice(Lattice::forDistance(distance)),
      _schedule(buildRoundSchedule(_lattice, protocolSpec(protocol))),
      _extractor(_schedule)
{}

MemoryExperiment::Shot
MemoryExperiment::sampleShot(const quantum::ErrorRates &rates,
                             sim::Rng &rng) const
{
    Shot shot{ quantum::PauliFrame(_lattice.numQubits()), {} };
    quantum::ErrorChannel channel(rates, rng);
    shot.history = _extractor.runRounds(shot.frame, &channel, _rounds);
    shot.history.push_back(_extractor.runRound(shot.frame, nullptr));
    return shot;
}

void
MemoryExperiment::sampleBatch(const quantum::ErrorRates &rates,
                              std::uint64_t seed, std::uint64_t batch,
                              quantum::BatchPauliFrame &frame,
                              std::vector<BatchSyndromeRound> &history) const
{
    quantum::BatchErrorChannel channel(
        rates, seed, batch * quantum::BatchPauliFrame::lanes);
    frame.clear();
    history.clear();
    for (std::size_t r = 0; r < _rounds; ++r)
        history.push_back(_extractor.runRoundBatch(frame, &channel));
    history.push_back(_extractor.runRoundBatch(frame, nullptr));
}

bool
MemoryExperiment::logicalFailure(quantum::PauliFrame &frame) const
{
    if (_extractor.runRound(frame, nullptr).any())
        return true;
    bool x_odd = false, z_odd = false;
    for (const Coord c : _lattice.logicalZSupport())
        x_odd ^= frame.xError(_lattice.index(c));
    for (const Coord c : _lattice.logicalXSupport())
        z_odd ^= frame.zError(_lattice.index(c));
    return x_odd || z_odd;
}

} // namespace quest::qecc
