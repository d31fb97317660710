/**
 * @file
 * The verification subsystem itself: the multi-stream workload
 * generator, the Machine-vs-Interp differential engine, the invariant
 * checker and the coverage map. These are the oracles the fuzzer
 * trusts, so they get their own unit bar.
 */

#include <gtest/gtest.h>

#include "arch/interrupts.hh"
#include "verify/differential.hh"
#include "verify/invariants.hh"

namespace disc
{
namespace
{

// ---- Generator ----

TEST(Generator, DeterministicForSeedAndOptions)
{
    GenOptions opts;
    MultiStreamProgram a = generateMultiStream(42, opts);
    MultiStreamProgram b = generateMultiStream(42, opts);
    EXPECT_EQ(a.program.code, b.program.code);
    EXPECT_EQ(a.entry, b.entry);
    MultiStreamProgram c = generateMultiStream(43, opts);
    EXPECT_NE(a.program.code, c.program.code);
}

TEST(Generator, RespectsStreamAndLengthClamps)
{
    GenOptions opts;
    opts.streams = 99;
    opts.length = 100000;
    MultiStreamProgram msp = generateMultiStream(7, opts);
    EXPECT_EQ(msp.streams, kNumStreams);
    EXPECT_LE(msp.opts.length, 220u);
    // FORK's 12-bit entry field must be able to reach every stream.
    for (StreamId s = 0; s < msp.streams; ++s)
        EXPECT_LT(msp.entry[s], 4096u);
}

TEST(Generator, VectorTablePrefixPresent)
{
    MultiStreamProgram msp = generateMultiStream(3, GenOptions{});
    ASSERT_GE(msp.program.code.size(), kVectorTableEnd);
    for (StreamId s = 0; s < msp.streams; ++s)
        EXPECT_GE(msp.entry[s], kVectorTableEnd);
}

// ---- Differential engine ----

class DiffSeed : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DiffSeed, MachineMatchesPerStreamReference)
{
    GenOptions opts;
    MultiStreamProgram msp = generateMultiStream(GetParam(), opts);
    DiffOutcome out = runDifferential(msp);
    EXPECT_TRUE(out.ok()) << out.summary();
}

TEST_P(DiffSeed, CleanUnderInvariantChecker)
{
    MultiStreamProgram msp =
        generateMultiStream(GetParam() * 1621 + 5, GenOptions{});
    MachineRig rig(msp);
    InvariantChecker chk(rig.machine());
    rig.machine().setObserver(&chk);
    rig.start();
    rig.machine().run(rig.cycleBudget());
    EXPECT_TRUE(rig.machine().idle());
    EXPECT_TRUE(chk.ok()) << chk.report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffSeed,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Differential, SingleStreamAndFeaturesOffStillVerify)
{
    GenOptions opts;
    opts.streams = 1;
    opts.useInterrupts = false;
    opts.useDevices = false;
    DiffOutcome out =
        runDifferential(generateMultiStream(11, opts));
    EXPECT_TRUE(out.ok()) << out.summary();
}

TEST(Differential, SlowDevicesDoNotChangeArchitecturalState)
{
    for (unsigned latency : {0u, 1u, 6u}) {
        GenOptions opts;
        opts.deviceLatency = latency;
        DiffOutcome out =
            runDifferential(generateMultiStream(17, opts));
        EXPECT_TRUE(out.ok()) << "latency " << latency << "\n"
                              << out.summary();
    }
}

// ---- Invariant checker ----

TEST(Invariants, SeededPriorityInversionIsCaught)
{
    // The injected defect vectors to the *lowest* eligible pending
    // level; the generator's multi-level bursts make that observable
    // and only the bit-7-highest priority invariant can see it (the
    // handlers are architecturally net-zero).
    MultiStreamProgram msp = generateMultiStream(1, GenOptions{});
    MachineRig rig(msp);
    rig.machine().interrupts().setDefectLowPriorityVector(true);
    InvariantChecker chk(rig.machine());
    rig.machine().setObserver(&chk);
    rig.start();
    rig.machine().run(rig.cycleBudget());
    EXPECT_FALSE(chk.ok());
    ASSERT_FALSE(chk.violations().empty());
    EXPECT_NE(chk.violations()[0].message.find("vectored to level"),
              std::string::npos)
        << chk.report();
}

TEST(Invariants, DefectCaughtAcrossManySeeds)
{
    unsigned caught = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        MultiStreamProgram msp =
            generateMultiStream(seed, GenOptions{});
        MachineRig rig(msp);
        rig.machine().interrupts().setDefectLowPriorityVector(true);
        InvariantChecker chk(rig.machine());
        rig.machine().setObserver(&chk);
        rig.start();
        rig.machine().run(rig.cycleBudget());
        caught += chk.ok() ? 0 : 1;
    }
    EXPECT_GE(caught, 6u);
}

TEST(Invariants, ViolationStorageIsBounded)
{
    MultiStreamProgram msp = generateMultiStream(2, GenOptions{});
    MachineRig rig(msp);
    rig.machine().interrupts().setDefectLowPriorityVector(true);
    InvariantChecker chk(rig.machine());
    rig.machine().setObserver(&chk);
    rig.start();
    rig.machine().run(rig.cycleBudget());
    EXPECT_LE(chk.violations().size(), 32u);
    EXPECT_GE(chk.totalViolations(), chk.violations().size());
}

// ---- Coverage map ----

TEST(Coverage, RecordsAndMerges)
{
    CoverageMap a, b;
    EXPECT_EQ(a.pointsHit(), 0u);
    a.record(Opcode::ADD, PipeEvent::Issue, 1);
    a.record(Opcode::ADD, PipeEvent::Issue, 1);
    a.record(Opcode::LD, PipeEvent::BusBusy, 3);
    EXPECT_EQ(a.pointsHit(), 2u);

    b.record(Opcode::ADD, PipeEvent::Issue, 1);
    b.record(Opcode::HALT, PipeEvent::Retire, 2);
    EXPECT_EQ(a.countNew(b), 1u);
    a.merge(b);
    EXPECT_EQ(a.pointsHit(), 3u);
    EXPECT_EQ(a.countNew(b), 0u);

    a.clear();
    EXPECT_EQ(a.pointsHit(), 0u);
}

TEST(Coverage, DifferentialRunsGrowCoverage)
{
    CoverageMap total;
    std::size_t last = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        MultiStreamProgram msp =
            generateMultiStream(seed, GenOptions{});
        MachineRig rig(msp);
        InvariantChecker chk(rig.machine());
        CoverageMap local;
        chk.setCoverage(&local);
        rig.machine().setObserver(&chk);
        rig.start();
        rig.machine().run(rig.cycleBudget());
        total.merge(local);
    }
    EXPECT_GT(total.pointsHit(), last);
    EXPECT_LE(total.pointsHit(), total.pointsTotal());
    // Multi-stream workloads must exercise multi-stream coverage
    // points, not just the single-stream column.
    EXPECT_GT(total.pointsHit(), 50u);
}

// ---- Observer overhead contract ----

TEST(Observer, DetachingRestoresBaseline)
{
    // The runtime flag is the observer pointer: with it null the
    // machine must behave identically (the perf bar is covered by
    // the observer-free perfbench `machine` workload; here we check
    // behavioural identity).
    MultiStreamProgram msp = generateMultiStream(9, GenOptions{});

    MachineRig plain(msp);
    plain.start();
    plain.machine().run(plain.cycleBudget());

    MachineRig observed(msp);
    InvariantChecker chk(observed.machine());
    observed.machine().setObserver(&chk);
    observed.start();
    observed.machine().run(observed.cycleBudget());
    EXPECT_TRUE(chk.ok()) << chk.report();

    EXPECT_EQ(plain.machine().stats().cycles,
              observed.machine().stats().cycles);
    EXPECT_EQ(plain.machine().stats().totalRetired,
              observed.machine().stats().totalRetired);
    for (StreamId s = 0; s < msp.streams; ++s) {
        EXPECT_EQ(plain.machine().pc(s), observed.machine().pc(s));
        EXPECT_EQ(plain.machine().window(s).awp(),
                  observed.machine().window(s).awp());
    }
}

} // namespace
} // namespace disc
