/**
 * @file
 * Classical control-plane fault injection.
 *
 * The paper's argument (Section 3.4) is that QECC delivery must be
 * deterministic and uninterrupted -- "even small delay (~100ns) in
 * the execution of QECC can result in uncorrectable errors". The
 * quantum substrate already has an error model; this module gives
 * the *classical* control plane one too, so the reproduction can
 * answer how much classical-hardware unreliability the architecture
 * absorbs before the code breaks.
 *
 * Every classical component draws its faults from one FaultInjector:
 * packet loss and corruption on the global interconnect, SEU
 * bit-flips in the JJ microcode memories, global-decoder deadline
 * overruns, and wedged MCEs. Each fault site has its own rate and
 * its own deterministic xoshiro stream (seeded from the injector
 * seed and the site id), so a faulty run replays bit-for-bit under a
 * fixed seed and the sites never perturb each other's sequences.
 *
 * Pay-for-what-you-use: a site whose rate is zero never draws from
 * its stream, so an injector with all-zero rates leaves every
 * component on its fault-free fast path and the simulation is
 * bit-identical to one without the fault layer.
 */

#ifndef QUEST_SIM_FAULT_INJECTOR_HPP
#define QUEST_SIM_FAULT_INJECTOR_HPP

#include <array>
#include <cstdint>
#include <string>

#include "random.hpp"

namespace quest::sim {

/** The classical fault sites the control plane models. */
enum class FaultSite : std::size_t
{
    NetworkLoss = 0,   ///< packet vanishes on the global interconnect
    NetworkCorruption, ///< packet arrives with a CRC-detectable error
    MicrocodeSeu,      ///< single-event upset in a JJ microcode bank
    DecoderOverrun,    ///< global MWPM decode misses its window
    MceHang,           ///< an MCE wedges and stops responding
};

inline constexpr std::size_t faultSiteCount = 5;

inline constexpr FaultSite allFaultSites[] = {
    FaultSite::NetworkLoss,  FaultSite::NetworkCorruption,
    FaultSite::MicrocodeSeu, FaultSite::DecoderOverrun,
    FaultSite::MceHang,
};

/** Display name, e.g. "network-loss". */
std::string faultSiteName(FaultSite site);

/** Per-site fault rates plus the replay seed. */
struct FaultConfig
{
    /** Probability a site fires per trial (per packet attempt, per
     *  MCE-round, per global decode -- see each component's docs). */
    std::array<double, faultSiteCount> rates{};
    std::uint64_t seed = 0x5EEDFAB5u;

    double &rate(FaultSite s) { return rates[std::size_t(s)]; }
    double rate(FaultSite s) const { return rates[std::size_t(s)]; }

    /** True when any site has a nonzero rate. */
    bool anyEnabled() const;

    /** All-zero rates: the fault layer stays on the fast path. */
    static FaultConfig none() { return {}; }

    /** The same rate at every site (fault-sweep convenience). */
    static FaultConfig uniform(double p,
                               std::uint64_t seed = 0x5EEDFAB5u);
};

/** Seeded, per-site-deterministic fault source. */
class FaultInjector
{
  public:
    FaultInjector() { configure(FaultConfig::none()); }
    explicit FaultInjector(const FaultConfig &cfg) { configure(cfg); }

    /** (Re)configure rates and reseed every site stream. */
    void configure(const FaultConfig &cfg);

    const FaultConfig &config() const { return _cfg; }

    /** True when any site can fire. */
    bool enabled() const { return _enabled; }

    double rate(FaultSite s) const { return _cfg.rate(s); }

    /**
     * One Bernoulli trial at the site's rate. A zero-rate site
     * returns false without touching its stream.
     */
    bool fire(FaultSite site);

    /** Trials and hits so far (for reports and tests). */
    std::uint64_t trialCount(FaultSite s) const
    {
        return _trials[std::size_t(s)];
    }
    std::uint64_t firedCount(FaultSite s) const
    {
        return _fired[std::size_t(s)];
    }

    /**
     * The site's placement stream, for choosing *where* a fired
     * fault lands (which bit flips, which qubit the bad uop hits).
     */
    Rng &rng(FaultSite site) { return _streams[std::size_t(site)]; }

  private:
    FaultConfig _cfg;
    bool _enabled = false;
    std::array<Rng, faultSiteCount> _streams;
    std::array<std::uint64_t, faultSiteCount> _trials{};
    std::array<std::uint64_t, faultSiteCount> _fired{};
};

} // namespace quest::sim

#endif // QUEST_SIM_FAULT_INJECTOR_HPP
