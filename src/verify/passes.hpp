/**
 * @file
 * The seven standard verification passes, private to src/verify.
 * Verifier::run calls them in the order declared here (the
 * catalogue is in verifier.hpp); each appends its findings to
 * `report`.
 */

#ifndef QUEST_VERIFY_PASSES_HPP
#define QUEST_VERIFY_PASSES_HPP

#include "verifier.hpp"

namespace quest::verify {

void checkEquivalence(const TileArtifacts &a, Report &report);
void checkBudget(const TileArtifacts &a, Report &report);
void checkHazards(const TileArtifacts &a, Report &report);
void checkMask(const TileArtifacts &a, Report &report);
void checkIsa(const TileArtifacts &a, Report &report);
// Defined in timing.cpp, beside the oracle they run.
void checkTiming(const TileArtifacts &a, Report &report);
void checkContention(const TileArtifacts &a, Report &report);

} // namespace quest::verify

#endif // QUEST_VERIFY_PASSES_HPP
