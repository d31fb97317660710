/**
 * @file
 * The micro-op map: every (opcode, cond) pair must resolve to a
 * handler index that round-trips to its opcode, BR must fan out to
 * one distinct micro-op per condition, and every micro-op must have a
 * unique printable name. Whether each handler's semantics match the
 * opcode they are mapped from is checked by the differential tests
 * against the interpreter's opcode switch (test_differential.cc).
 */

#include <gtest/gtest.h>

#include "isa/uops.hh"

namespace disc
{
namespace
{

// ---- The uop map ----

TEST(UopMap, EveryOpcodeResolvesAndRoundTrips)
{
    for (unsigned op = 0; op < kNumOpcodes; ++op) {
        for (unsigned c = 0; c < 8; ++c) {
            Uop u = uopFor(static_cast<Opcode>(op),
                           static_cast<Cond>(c));
            ASSERT_NE(u, Uop::Invalid)
                << "opcode " << op << " cond " << c;
            ASSERT_LT(static_cast<unsigned>(u), kNumUops);
            EXPECT_EQ(uopOpcode(u), static_cast<Opcode>(op))
                << "opcode " << op << " cond " << c;
        }
    }
}

TEST(UopMap, BranchSplitsByCondition)
{
    // BR is the one opcode that fans out: eight uops, one per cond.
    bool seen[kNumUops] = {};
    for (unsigned c = 0; c < 8; ++c) {
        Uop u = uopFor(Opcode::BR, static_cast<Cond>(c));
        EXPECT_FALSE(seen[static_cast<unsigned>(u)])
            << "cond " << c << " aliases another branch uop";
        seen[static_cast<unsigned>(u)] = true;
        EXPECT_EQ(uopOpcode(u), Opcode::BR);
    }
    // Non-branch opcodes ignore cond entirely.
    for (unsigned c = 1; c < 8; ++c) {
        EXPECT_EQ(uopFor(Opcode::ADD, static_cast<Cond>(c)),
                  uopFor(Opcode::ADD, Cond::EQ));
    }
}

TEST(UopMap, NamesAreUnique)
{
    for (unsigned a = 0; a < kNumUops; ++a) {
        for (unsigned b = a + 1; b < kNumUops; ++b) {
            EXPECT_NE(uopName(static_cast<Uop>(a)),
                      uopName(static_cast<Uop>(b)))
                << "uops " << a << " and " << b;
        }
    }
}

} // namespace
} // namespace disc
