#include "fault_injector.hpp"

#include "logging.hpp"

namespace quest::sim {

std::string
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::NetworkLoss: return "network-loss";
      case FaultSite::NetworkCorruption: return "network-corruption";
      case FaultSite::MicrocodeSeu: return "microcode-seu";
      case FaultSite::DecoderOverrun: return "decoder-overrun";
      case FaultSite::MceHang: return "mce-hang";
    }
    panic("invalid fault site %zu", std::size_t(site));
}

bool
FaultConfig::anyEnabled() const
{
    for (double r : rates)
        if (r > 0.0)
            return true;
    return false;
}

FaultConfig
FaultConfig::uniform(double p, std::uint64_t seed)
{
    FaultConfig cfg;
    cfg.rates.fill(p);
    cfg.seed = seed;
    return cfg;
}

void
FaultInjector::configure(const FaultConfig &cfg)
{
    for (double r : cfg.rates)
        QUEST_ASSERT(r >= 0.0 && r <= 1.0,
                     "fault rate %g outside [0, 1]", r);
    _cfg = cfg;
    _enabled = cfg.anyEnabled();
    // Per-site streams: seeded from the injector seed and the site
    // id, so interleaving draws across sites never perturbs any one
    // site's sequence (deterministic replay).
    for (std::size_t i = 0; i < faultSiteCount; ++i)
        _streams[i].seed(cfg.seed
                         ^ (0x9E3779B97F4A7C15ull * (i + 1)));
    _trials.fill(0);
    _fired.fill(0);
}

bool
FaultInjector::fire(FaultSite site)
{
    const std::size_t i = std::size_t(site);
    const double p = _cfg.rates[i];
    if (p <= 0.0)
        return false; // zero-rate sites never draw
    ++_trials[i];
    const bool hit = _streams[i].bernoulli(p);
    if (hit)
        ++_fired[i];
    return hit;
}

} // namespace quest::sim
