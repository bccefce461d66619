/**
 * @file
 * Table 1: technology parameters. Mostly an input table, printed
 * here together with the derived T_ecc (one QECC round) so the
 * reproduction's round-duration model can be compared against the
 * published column directly.
 */

#include "bench_util.hpp"
#include "qecc/protocol.hpp"
#include "sim/types.hpp"
#include "tech/parameters.hpp"

namespace {

using namespace quest;

void
printFigure()
{
    sim::Table table("Table 1: technology parameters");
    table.header({ "parameter", "ExperimentalS", "ProjectedF",
                   "ProjectedD" });

    auto fmt = [](sim::Tick t) {
        return sim::formatSeconds(sim::ticksToSeconds(t));
    };
    const auto s = tech::gateLatencies(
        tech::Technology::ExperimentalS);
    const auto f = tech::gateLatencies(tech::Technology::ProjectedF);
    const auto d = tech::gateLatencies(tech::Technology::ProjectedD);

    table.row({ "t_prep", fmt(s.tPrep), fmt(f.tPrep), fmt(d.tPrep) });
    table.row({ "t_1", fmt(s.t1), fmt(f.t1), fmt(d.t1) });
    table.row({ "t_meas", fmt(s.tMeas), fmt(f.tMeas),
                fmt(d.tMeas) });
    table.row({ "t_CNOT", fmt(s.tCnot), fmt(f.tCnot),
                fmt(d.tCnot) });
    table.row({ "T_ecc (derived)", fmt(s.eccRound()),
                fmt(f.eccRound()), fmt(d.eccRound()) });
    table.caption("paper T_ecc: 2.42us / 405ns / 165ns "
                  "(ours: identity + prep + 4 CNOT + measurement)");

    sim::Table rounds("Table 1b: per-protocol round durations");
    rounds.header({ "syndrome", "ExperimentalS", "ProjectedF",
                    "ProjectedD" });
    for (qecc::Protocol p : qecc::allProtocols) {
        const auto &spec = qecc::protocolSpec(p);
        rounds.row({
            spec.name,
            fmt(spec.roundDuration(s)),
            fmt(spec.roundDuration(f)),
            fmt(spec.roundDuration(d)),
        });
    }

    quest::bench::emit(table);
    quest::bench::emit(rounds);
}

} // namespace

QUEST_BENCH_MAIN(printFigure)
