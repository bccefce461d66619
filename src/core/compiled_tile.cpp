#include "compiled_tile.hpp"

#include "mce.hpp"

namespace quest::core {

namespace {

/** The tile's lattice: (2d-1)x(2d-1) unless the config sizes it. */
qecc::Lattice
tileLattice(const MceConfig &cfg)
{
    return qecc::Lattice(
        cfg.latticeRows ? cfg.latticeRows : 2 * cfg.distance - 1,
        cfg.latticeCols ? cfg.latticeCols : 2 * cfg.distance - 1);
}

} // namespace

CompiledTile::CompiledTile(const MceConfig &cfg)
    : _protocol(cfg.protocol), _technology(cfg.technology),
      _microcodeDesign(cfg.microcodeDesign), _lattice(tileLattice(cfg)),
      _baseSchedule(qecc::buildRoundSchedule(
          _lattice, qecc::protocolSpec(cfg.protocol))),
      _program(_baseSchedule), _geometry(_lattice)
{
    const MicrocodeModel model(qecc::protocolSpec(cfg.protocol),
                               cfg.technology);
    _uopBits = model.uopBits(cfg.microcodeDesign, _lattice.numQubits());
    _imageBits =
        model.capacityBits(cfg.microcodeDesign, _lattice.numQubits());
}

bool
CompiledTile::compiledFrom(const MceConfig &cfg) const
{
    const qecc::Lattice lat = tileLattice(cfg);
    return lat.rows() == _lattice.rows() && lat.cols() == _lattice.cols()
        && cfg.protocol == _protocol && cfg.technology == _technology
        && cfg.microcodeDesign == _microcodeDesign;
}

} // namespace quest::core
