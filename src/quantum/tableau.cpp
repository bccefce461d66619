#include "tableau.hpp"

#include <bit>
#include <utility>

#include "sim/logging.hpp"

namespace quest::quantum {

namespace {

constexpr std::size_t wordBits = 64;
constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** Column stride: ceil(2n/64) words, one bit per generator row. */
std::size_t
columnStride(std::size_t num_qubits)
{
    return (2 * num_qubits + wordBits - 1) / wordBits;
}

/** Inclusive prefix-parity of a word: bit k = parity of bits 0..k. */
std::uint64_t
prefixXor(std::uint64_t v)
{
    v ^= v << 1;
    v ^= v << 2;
    v ^= v << 4;
    v ^= v << 8;
    v ^= v << 16;
    v ^= v << 32;
    return v;
}

/** Word w of a row mask selecting rows [0, limit). */
std::uint64_t
rowsBelowWord(std::size_t w, std::size_t limit)
{
    const std::size_t lo = w * wordBits;
    if (limit <= lo)
        return 0;
    if (limit >= lo + wordBits)
        return ~std::uint64_t(0);
    return (std::uint64_t(1) << (limit - lo)) - 1;
}

bool
getBit(const std::uint64_t *v, std::size_t i)
{
    return (v[i / wordBits] >> (i % wordBits)) & 1u;
}

void
setBit(std::uint64_t *v, std::size_t i, bool b)
{
    const std::uint64_t mask = std::uint64_t(1) << (i % wordBits);
    if (b)
        v[i / wordBits] |= mask;
    else
        v[i / wordBits] &= ~mask;
}

} // namespace

Tableau::Tableau(std::size_t num_qubits)
    : _n(num_qubits),
      _rw(columnStride(num_qubits)),
      _x(num_qubits * _rw, 0),
      _z(num_qubits * _rw, 0),
      _r(_rw, 0)
{
    QUEST_ASSERT(_n > 0, "tableau needs at least one qubit");
    // Destabilizer i = X_i; stabilizer i = Z_i (the |0..0> state).
    for (std::size_t i = 0; i < _n; ++i) {
        setX(i, i, true);
        setZ(_n + i, i, true);
    }
}

bool
Tableau::getX(std::size_t row, std::size_t col) const
{
    return getBit(xcol(col), row);
}

bool
Tableau::getZ(std::size_t row, std::size_t col) const
{
    return getBit(zcol(col), row);
}

void
Tableau::setX(std::size_t row, std::size_t col, bool v)
{
    setBit(xcol(col), row, v);
}

void
Tableau::setZ(std::size_t row, std::size_t col, bool v)
{
    setBit(zcol(col), row, v);
}

void
Tableau::h(std::size_t q)
{
    QUEST_ASSERT(q < _n, "qubit %zu out of range", q);
    std::uint64_t *x = xcol(q);
    std::uint64_t *z = zcol(q);
    for (std::size_t w = 0; w < _rw; ++w) {
        _r[w] ^= x[w] & z[w];
        std::swap(x[w], z[w]);
    }
}

void
Tableau::s(std::size_t q)
{
    QUEST_ASSERT(q < _n, "qubit %zu out of range", q);
    const std::uint64_t *x = xcol(q);
    std::uint64_t *z = zcol(q);
    for (std::size_t w = 0; w < _rw; ++w) {
        _r[w] ^= x[w] & z[w];
        z[w] ^= x[w];
    }
}

void
Tableau::sdg(std::size_t q)
{
    // S^dagger = S Z.
    s(q);
    z(q);
}

void
Tableau::x(std::size_t q)
{
    QUEST_ASSERT(q < _n, "qubit %zu out of range", q);
    const std::uint64_t *z = zcol(q);
    for (std::size_t w = 0; w < _rw; ++w)
        _r[w] ^= z[w];
}

void
Tableau::z(std::size_t q)
{
    QUEST_ASSERT(q < _n, "qubit %zu out of range", q);
    const std::uint64_t *x = xcol(q);
    for (std::size_t w = 0; w < _rw; ++w)
        _r[w] ^= x[w];
}

void
Tableau::y(std::size_t q)
{
    QUEST_ASSERT(q < _n, "qubit %zu out of range", q);
    const std::uint64_t *x = xcol(q);
    const std::uint64_t *z = zcol(q);
    for (std::size_t w = 0; w < _rw; ++w)
        _r[w] ^= x[w] ^ z[w];
}

void
Tableau::cnot(std::size_t control, std::size_t target)
{
    QUEST_ASSERT(control < _n && target < _n && control != target,
                 "bad CNOT operands (%zu, %zu)", control, target);
    const std::uint64_t *xc = xcol(control);
    std::uint64_t *zc = zcol(control);
    std::uint64_t *xt = xcol(target);
    const std::uint64_t *zt = zcol(target);
    for (std::size_t w = 0; w < _rw; ++w) {
        // Sign flips where the row has X on the control, Z on the
        // target and xt == zc (the CHP rule).
        _r[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
        xt[w] ^= xc[w];
        zc[w] ^= zt[w];
    }
}

void
Tableau::cz(std::size_t a, std::size_t b)
{
    // CZ = (I (x) H) CNOT (I (x) H).
    h(b);
    cnot(a, b);
    h(b);
}

void
Tableau::swapQubits(std::size_t a, std::size_t b)
{
    cnot(a, b);
    cnot(b, a);
    cnot(a, b);
}

void
Tableau::applyPauli(const PauliString &p)
{
    QUEST_ASSERT(p.size() == _n,
                 "Pauli size %zu does not match tableau size %zu",
                 p.size(), _n);
    for (std::size_t q = 0; q < _n; ++q) {
        switch (p.at(q)) {
          case Pauli::I: break;
          case Pauli::X: x(q); break;
          case Pauli::Z: z(q); break;
          case Pauli::Y: y(q); break;
        }
    }
}

int
Tableau::selectedProductPhase(const std::uint64_t *m_src,
                              const PauliString *expect) const
{
    // Carry-save Z4 phase planes indexed by row: after the column
    // loop, row r's 2-bit counter (cnt2:cnt1 at bit r) holds the sum
    // mod 4 of its g() contributions across all qubit columns.
    thread_local std::vector<std::uint64_t> cnt1v;
    thread_local std::vector<std::uint64_t> cnt2v;
    cnt1v.assign(_rw, 0);
    cnt2v.assign(_rw, 0);

    for (std::size_t c = 0; c < _n; ++c) {
        const std::uint64_t *x = xcol(c);
        const std::uint64_t *z = zcol(c);
        // All-zeros / all-ones masks carrying the running product's
        // bit at this column across word boundaries.
        std::uint64_t carry_x = 0;
        std::uint64_t carry_z = 0;
        for (std::size_t w = 0; w < _rw; ++w) {
            const std::uint64_t x1 = x[w] & m_src[w];
            const std::uint64_t z1 = z[w] & m_src[w];
            // Exclusive prefix parity over the selected rows: at
            // each selected row, the accumulated product's (x, z)
            // bits at this column just before that row multiplies
            // in — exactly the sequential rowsum's accumulator.
            const std::uint64_t px = prefixXor(x1);
            const std::uint64_t pz = prefixXor(z1);
            const std::uint64_t x2 = (px << 1) ^ carry_x;
            const std::uint64_t z2 = (pz << 1) ^ carry_z;
            carry_x ^= std::uint64_t(0) - (px >> 63);
            carry_z ^= std::uint64_t(0) - (pz >> 63);

            // CHP g(x1, z1, x2, z2) as +1/-1 masks (x1/z1 already
            // restrict to the selected rows).
            const std::uint64_t y1 = x1 & z1;
            const std::uint64_t xonly = x1 & ~z1;
            const std::uint64_t zonly = ~x1 & z1;
            const std::uint64_t plus = (y1 & z2 & ~x2)
                                       | (xonly & z2 & x2)
                                       | (zonly & x2 & ~z2);
            const std::uint64_t minus = (y1 & x2 & ~z2)
                                        | (xonly & z2 & ~x2)
                                        | (zonly & x2 & z2);

            const std::uint64_t up = cnt1v[w] & plus;
            cnt1v[w] ^= plus;
            cnt2v[w] ^= up;
            const std::uint64_t down = ~cnt1v[w] & minus;
            cnt1v[w] ^= minus;
            cnt2v[w] ^= down;
        }
        if (expect) {
            // Final carries hold the product's Pauli bits at this
            // column; they must reconstruct the expected operator.
            const Pauli prod = makePauli(carry_x & 1u, carry_z & 1u);
            QUEST_ASSERT(prod == expect->at(c),
                         "expectation reconstruction mismatch at "
                         "qubit %zu",
                         c);
        }
    }

    std::int64_t total = 0;
    for (std::size_t w = 0; w < _rw; ++w) {
        total += std::popcount(cnt1v[w]);
        total += 2 * std::popcount(cnt2v[w]);
        total += 2 * std::popcount(_r[w] & m_src[w]);
    }
    return static_cast<int>(total % 4);
}

const std::uint64_t *
Tableau::partnerStabilizers(const std::uint64_t *rows) const
{
    thread_local std::vector<std::uint64_t> m;
    m.assign(_rw, 0);
    const std::size_t ws = _n / wordBits;
    const std::size_t bs = _n % wordBits;
    for (std::size_t w = _rw; w-- > ws;) {
        const std::uint64_t lo = rows[w - ws] & rowsBelowWord(w - ws, _n);
        std::uint64_t v = bs ? (lo << bs) : lo;
        if (bs && w > ws)
            v |= (rows[w - ws - 1] & rowsBelowWord(w - ws - 1, _n))
                 >> (wordBits - bs);
        m[w] = v;
    }
    return m.data();
}

bool
Tableau::deterministicZ(std::size_t q) const
{
    // Z_q is the product of the stabilizers whose destabilizer
    // partner anticommutes with it: rows i < n with X in column q.
    const int phase =
        selectedProductPhase(partnerStabilizers(xcol(q)), nullptr);
    QUEST_ASSERT(phase == 0 || phase == 2,
                 "deterministic measurement with imaginary phase %d",
                 phase);
    return phase == 2;
}

std::size_t
Tableau::findPivot(std::size_t q) const
{
    const std::uint64_t *cx = xcol(q);
    for (std::size_t w = _n / wordBits; w < _rw; ++w) {
        const std::uint64_t hit = cx[w] & ~rowsBelowWord(w, _n);
        if (hit)
            return w * wordBits
                + std::size_t(std::countr_zero(hit));
    }
    return npos;
}

int
Tableau::peekZ(std::size_t q) const
{
    QUEST_ASSERT(q < _n, "qubit %zu out of range", q);
    if (findPivot(q) != npos)
        return -1; // outcome is random
    return deterministicZ(q) ? 1 : 0;
}

void
Tableau::collapseRandom(std::size_t q, std::size_t p, bool outcome)
{
    const std::size_t d = p - _n;
    const std::size_t wp = p / wordBits, bp = p % wordBits;
    const std::size_t wd = d / wordBits, bd = d % wordBits;
    const std::uint64_t pbit = std::uint64_t(1) << bp;
    const std::uint64_t dbit = std::uint64_t(1) << bd;

    // Row mask of the rowsum targets: every row with X in column q
    // except the pivot and its destabilizer partner.
    thread_local std::vector<std::uint64_t> mv;
    mv.assign(xcol(q), xcol(q) + _rw);
    mv[wp] &= ~pbit;
    mv[wd] &= ~dbit;
    const bool rp = (_r[wp] >> bp) & 1u;

    // Pass 1: after a few collapses most rows have small support, so
    // in almost every column bits p and d are both clear and there
    // is nothing to do. Otherwise classify the pivot row's Pauli at
    // this column and move bit p down to bit d (bit d := bit p, then
    // bit p := 0 — ordering that stays correct when wp == wd, i.e.
    // n < 64).
    thread_local std::vector<std::uint32_t> colsX, colsZ, colsY;
    colsX.clear();
    colsZ.clear();
    colsY.clear();
    for (std::size_t c = 0; c < _n; ++c) {
        std::uint64_t *cx = xcol(c);
        std::uint64_t *cz = zcol(c);
        if ((((cx[wp] | cz[wp]) & pbit) | ((cx[wd] | cz[wd]) & dbit))
            == 0)
            continue;
        const std::uint64_t x1 = (cx[wp] >> bp) & 1u;
        const std::uint64_t z1 = (cz[wp] >> bp) & 1u;
        cx[wd] = (cx[wd] & ~dbit) | (x1 << bd);
        cx[wp] &= ~pbit;
        cz[wd] = (cz[wd] & ~dbit) | (z1 << bd);
        cz[wp] &= ~pbit;
        const unsigned cls = unsigned(x1) | (unsigned(z1) << 1);
        if (cls == 1)
            colsX.push_back(std::uint32_t(c));
        else if (cls == 2)
            colsZ.push_back(std::uint32_t(c));
        else if (cls == 3)
            colsY.push_back(std::uint32_t(c));
    }

    // Phase cascade over the classified columns only: per-row Z4
    // counters in two carry-save planes, g-masks fixed per class.
    // Bits p and d of the column words were already rewritten by
    // pass 1, but both rows are masked out of mv, so the fold
    // below never reads them.
    thread_local std::vector<std::uint64_t> cnt1v, cnt2v;
    cnt1v.assign(_rw, 0);
    cnt2v.assign(_rw, 0);
    const auto runCascade = [&](const std::vector<std::uint32_t> &cols,
                                unsigned cls) {
        for (const std::uint32_t c : cols) {
            std::uint64_t *cx = xcol(c);
            std::uint64_t *cz = zcol(c);
            for (std::size_t w = 0; w < _rw; ++w) {
                const std::uint64_t x2 = cx[w];
                const std::uint64_t z2 = cz[w];
                std::uint64_t plus, minus;
                if (cls == 3) { // Y: plus z&~x, minus x&~z
                    plus = z2 & ~x2;
                    minus = x2 & ~z2;
                } else if (cls == 1) { // X: plus x&z, minus z&~x
                    plus = x2 & z2;
                    minus = z2 & ~x2;
                } else { // Z: plus x&~z, minus x&z
                    plus = x2 & ~z2;
                    minus = x2 & z2;
                }
                plus &= mv[w];
                minus &= mv[w];
                cnt2v[w] ^= cnt1v[w] & plus;
                cnt1v[w] ^= plus;
                cnt2v[w] ^= ~cnt1v[w] & minus;
                cnt1v[w] ^= minus;

                // Rowsum bit flips: multiply the pivot into the
                // selected rows (X class flips X, Z flips Z, Y flips
                // both).
                if (cls != 2)
                    cx[w] = x2 ^ mv[w];
                if (cls != 1)
                    cz[w] = z2 ^ mv[w];
            }
        }
    };
    runCascade(colsX, 1);
    runCascade(colsZ, 2);
    runCascade(colsY, 3);

    // Fold phases into signs: each selected row's g total must be
    // even (real phase), and bit 1 of the counter decides the flip;
    // the pivot's own old sign propagates to every selected row.
    for (std::size_t w = 0; w < _rw; ++w) {
        QUEST_ASSERT((cnt1v[w] & mv[w]) == 0,
                     "rowsum produced imaginary phase");
        _r[w] ^= (cnt2v[w] & mv[w]) ^ (rp ? mv[w] : std::uint64_t(0));
    }

    // Row p := Z_q with the measured sign; its old value already
    // moved to row d in pass 1, which also receives the old sign.
    zcol(q)[wp] |= pbit;
    _r[wp] = (_r[wp] & ~pbit) | (std::uint64_t(outcome ? 1 : 0) << bp);
    _r[wd] = (_r[wd] & ~dbit) | (std::uint64_t(rp ? 1 : 0) << bd);
}

bool
Tableau::measureZ(std::size_t q, sim::Rng &rng)
{
    QUEST_ASSERT(q < _n, "qubit %zu out of range", q);
    const std::size_t p = findPivot(q);
    if (p != npos) {
        const bool outcome = rng.bernoulli(0.5);
        collapseRandom(q, p, outcome);
        return outcome;
    }
    return deterministicZ(q);
}

bool
Tableau::projectZ(std::size_t q, bool outcome)
{
    QUEST_ASSERT(q < _n, "qubit %zu out of range", q);
    const std::size_t p = findPivot(q);
    if (p == npos)
        return false;
    collapseRandom(q, p, outcome);
    return true;
}

void
Tableau::reset(std::size_t q, sim::Rng &rng)
{
    if (measureZ(q, rng))
        x(q);
}

PauliString
Tableau::stabilizer(std::size_t i) const
{
    QUEST_ASSERT(i < _n, "stabilizer index %zu out of range", i);
    PauliString out(_n);
    const std::size_t row = _n + i;
    for (std::size_t q = 0; q < _n; ++q)
        out.set(q, makePauli(getX(row, q), getZ(row, q)));
    out.setPhaseExponent(getBit(_r.data(), row) ? 2 : 0);
    return out;
}

PauliString
Tableau::destabilizer(std::size_t i) const
{
    QUEST_ASSERT(i < _n, "destabilizer index %zu out of range", i);
    PauliString out(_n);
    for (std::size_t q = 0; q < _n; ++q)
        out.set(q, makePauli(getX(i, q), getZ(i, q)));
    out.setPhaseExponent(getBit(_r.data(), i) ? 2 : 0);
    return out;
}

int
Tableau::expectation(const PauliString &p) const
{
    QUEST_ASSERT(p.size() == _n,
                 "Pauli size %zu does not match tableau size %zu",
                 p.size(), _n);

    // Anticommutation parity of every row with p at once: row r
    // anticommutes iff sum_c (x_rc & pz_c) ^ (z_rc & px_c) is odd.
    thread_local std::vector<std::uint64_t> par;
    par.assign(_rw, 0);
    for (std::size_t c = 0; c < _n; ++c) {
        const Pauli pc = p.at(c);
        if (pauliZ(pc)) {
            const std::uint64_t *x = xcol(c);
            for (std::size_t w = 0; w < _rw; ++w)
                par[w] ^= x[w];
        }
        if (pauliX(pc)) {
            const std::uint64_t *z = zcol(c);
            for (std::size_t w = 0; w < _rw; ++w)
                par[w] ^= z[w];
        }
    }

    // If p anticommutes with any stabilizer, <p> = 0.
    for (std::size_t w = _n / wordBits; w < _rw; ++w)
        if (par[w] & ~rowsBelowWord(w, _n))
            return 0;

    // Otherwise p is (up to sign) the product of the stabilizers
    // whose destabilizer partner anticommutes with it; fold that
    // product's phase word-parallel.
    const int acc_phase =
        selectedProductPhase(partnerStabilizers(par.data()), &p);
    const std::uint8_t rel = static_cast<std::uint8_t>(
        (acc_phase - p.phaseExponent()) & 3u);
    QUEST_ASSERT(rel == 0 || rel == 2, "imaginary expectation phase");
    return rel == 0 ? 1 : -1;
}

bool
Tableau::checkInvariants() const
{
    // Destabilizer i must anticommute with stabilizer i and commute
    // with every other stabilizer; stabilizers must mutually commute.
    for (std::size_t i = 0; i < _n; ++i) {
        const PauliString di = destabilizer(i);
        for (std::size_t j = 0; j < _n; ++j) {
            const PauliString sj = stabilizer(j);
            const bool want_commute = (i != j);
            if (di.commutesWith(sj) != want_commute)
                return false;
        }
    }
    for (std::size_t i = 0; i < _n; ++i)
        for (std::size_t j = i + 1; j < _n; ++j)
            if (!stabilizer(i).commutesWith(stabilizer(j)))
                return false;
    return true;
}

} // namespace quest::quantum
