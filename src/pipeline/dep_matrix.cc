#include "pipeline/dep_matrix.hh"

#include "common/log.hh"

namespace siwi::pipeline {

DepMatrix
DepMatrix::identity()
{
    DepMatrix m;
    for (unsigned i = 0; i < dim; ++i)
        m.set(i, i);
    return m;
}

DepMatrix
DepMatrix::fromMasks(const std::array<LaneMask, dim> &at_t,
                     const std::array<LaneMask, dim> &at_t1)
{
    DepMatrix m;
    for (unsigned i = 0; i < dim; ++i) {
        for (unsigned j = 0; j < dim; ++j) {
            if (at_t[i].intersects(at_t1[j]))
                m.set(i, j);
        }
    }
    return m;
}

bool
DepMatrix::get(unsigned r, unsigned c) const
{
    siwi_assert(r < dim && c < dim, "bad matrix index");
    return (bits_ >> (r * dim + c)) & 1;
}

void
DepMatrix::set(unsigned r, unsigned c)
{
    siwi_assert(r < dim && c < dim, "bad matrix index");
    bits_ |= u16(1) << (r * dim + c);
}

DepMatrix
DepMatrix::multiply(const DepMatrix &rhs) const
{
    DepMatrix out;
    for (unsigned i = 0; i < dim; ++i) {
        for (unsigned j = 0; j < dim; ++j) {
            for (unsigned k = 0; k < dim; ++k) {
                if (get(i, k) && rhs.get(k, j)) {
                    out.set(i, j);
                    break;
                }
            }
        }
    }
    return out;
}

DepMatrixScoreboard::DepMatrixScoreboard(unsigned entries)
    : entries_(entries)
{
}

bool
DepMatrixScoreboard::hasFreeEntry() const
{
    for (const Entry &e : entries_) {
        if (!e.valid)
            return true;
    }
    return false;
}

unsigned
DepMatrixScoreboard::used() const
{
    unsigned n = 0;
    for (const Entry &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

unsigned
DepMatrixScoreboard::allocate(RegIdx dst, unsigned slot)
{
    siwi_assert(slot < DepMatrix::dim, "bad issue slot");
    for (unsigned i = 0; i < entries_.size(); ++i) {
        Entry &e = entries_[i];
        if (!e.valid) {
            e.valid = true;
            e.dst = dst;
            e.slot = slot;
            e.matrix = DepMatrix::identity();
            return i;
        }
    }
    panic("dep-matrix scoreboard full on allocate");
}

void
DepMatrixScoreboard::release(unsigned idx)
{
    siwi_assert(idx < entries_.size() && entries_[idx].valid,
                "bad release");
    entries_[idx].valid = false;
}

void
DepMatrixScoreboard::step(
    const std::array<LaneMask, DepMatrix::dim> &at_t,
    const std::array<LaneMask, DepMatrix::dim> &at_t1)
{
    DepMatrix one_step = DepMatrix::fromMasks(at_t, at_t1);
    for (Entry &e : entries_) {
        if (e.valid)
            e.matrix = e.matrix.multiply(one_step);
    }
}

bool
DepMatrixScoreboard::conflicts(const isa::Instruction &inst,
                               unsigned slot) const
{
    siwi_assert(slot < DepMatrix::dim, "bad issue slot");
    u64 regs = inst.srcMask();
    if (inst.writesDst())
        regs |= u64(1) << inst.dst;
    for (const Entry &e : entries_) {
        if (e.valid && e.matrix.get(e.slot, slot) && (regs >> e.dst) & 1)
            return true;
    }
    return false;
}

} // namespace siwi::pipeline
