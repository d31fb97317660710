/**
 * @file
 * Event-skip equivalence: running a workload with fast-forward on and
 * off must be bit-identical — same retired-instruction trace (cycle
 * numbers included), same statistics and the same checkpoint bytes.
 * The fast-forward counters themselves are the only permitted
 * difference, and they are excluded from checkpoints by design.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "arch/devices.hh"
#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "verify/differential.hh"
#include "verify/generator.hh"
#include "verify/invariants.hh"

#ifndef DISC_SOURCE_DIR
#define DISC_SOURCE_DIR "."
#endif

namespace disc
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing sample " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Everything one run produces that the other must reproduce. */
struct RunRecord
{
    std::string trace;
    std::vector<std::uint8_t> checkpoint;
    MachineStats stats;
};

/** Stats fields that must match between stepping modes, as text. */
std::string
statsFingerprint(const MachineStats &st)
{
    std::string fp = strprintf(
        "c=%llu b=%llu r=%llu j=%llu q=%llu w=%llu d=%llu bub=%llu "
        "rd=%llu wr=%llu rej=%llu vec=%llu",
        (unsigned long long)st.cycles, (unsigned long long)st.busyCycles,
        (unsigned long long)st.totalRetired,
        (unsigned long long)st.redirects,
        (unsigned long long)st.squashedJump,
        (unsigned long long)st.squashedWait,
        (unsigned long long)st.squashedDeact,
        (unsigned long long)st.bubbles,
        (unsigned long long)st.externalReads,
        (unsigned long long)st.externalWrites,
        (unsigned long long)st.busBusyRejections,
        (unsigned long long)st.vectorsTaken);
    for (StreamId s = 0; s < kNumStreams; ++s) {
        fp += strprintf(" s%u=%llu/%llu/%llu/%llu", unsigned(s),
                        (unsigned long long)st.retired[s],
                        (unsigned long long)st.readyCycles[s],
                        (unsigned long long)st.waitAbiCycles[s],
                        (unsigned long long)st.inactiveCycles[s]);
    }
    return fp;
}

void
expectEquivalent(const RunRecord &ff, const RunRecord &steps)
{
    EXPECT_EQ(ff.trace, steps.trace);
    EXPECT_EQ(ff.checkpoint, steps.checkpoint);
    EXPECT_EQ(statsFingerprint(ff.stats), statsFingerprint(steps.stats));
    // The per-cycle run must never have skipped anything.
    EXPECT_EQ(steps.stats.fastForwardedCycles, 0u);
    EXPECT_EQ(steps.stats.fastForwards, 0u);
}

/** Run one of the shipped samples under @p setup in both modes. */
template <typename Setup>
void
checkSample(const Program &p, Cycle budget, Setup setup)
{
    auto record = [&](bool fast_forward) {
        Machine m;
        m.setFastForward(fast_forward);
        m.load(p);
        setup(m);
        ExecTrace trace(1u << 20);
        m.setExecTrace(&trace);
        m.run(budget);
        EXPECT_TRUE(m.idle());
        return RunRecord{trace.render(), m.saveState(), m.stats()};
    };
    RunRecord ff = record(true);
    RunRecord steps = record(false);
    expectEquivalent(ff, steps);
}

TEST(FastForwardEquivalence, GcdSample)
{
    Program p = assemble(
        readFile(std::string(DISC_SOURCE_DIR) + "/examples/asm/gcd.s"));
    checkSample(p, 10000,
                [&](Machine &m) { m.startStream(0, p.symbol("main")); });
}

TEST(FastForwardEquivalence, ParallelSumSample)
{
    Program p = assemble(readFile(std::string(DISC_SOURCE_DIR) +
                                  "/examples/asm/parallel_sum.s"));
    checkSample(p, 50000, [&](Machine &m) {
        m.startStream(0, p.symbol("combine"));
        m.startStream(1, p.symbol("worker_a"));
        m.startStream(2, p.symbol("worker_b"));
        m.startStream(3, p.symbol("worker_c"));
    });
}

/**
 * I/O-bound kernel: a slow-device load loop spends most of its cycles
 * in the Access wait state — the case the event skip is for. The
 * fast-forward run must actually take skips here or the equivalence
 * claim is vacuous.
 */
TEST(FastForwardEquivalence, SlowDeviceLoadLoop)
{
    Program p = assemble(R"(
        .org 0x20
        main:
            ldi  g0, 0x00
            ldih g0, 0x10     ; device at 0x1000
            ldi  r1, 20       ; iterations
            ldi  r2, 0        ; accumulator
        loop:
            ld   r3, [g0]
            add  r2, r2, r3
            st   r2, [g0]
            subi r1, r1, 1
            cmpi r1, 0
            bne  loop
            stmd r2, [0x40]
            halt
    )");
    auto record = [&](bool fast_forward) {
        Machine m;
        m.setFastForward(fast_forward);
        m.load(p);
        ExternalMemoryDevice dev(64, 60); // 60-cycle access time
        dev.poke(0, 5);
        m.attachDevice(0x1000, 64, &dev);
        m.startStream(0, p.symbol("main"));
        ExecTrace trace(1u << 20);
        m.setExecTrace(&trace);
        m.run(200000);
        EXPECT_TRUE(m.idle());
        if (fast_forward) {
            EXPECT_GT(m.stats().fastForwardedCycles, 0u);
        }
        return RunRecord{trace.render(), m.saveState(), m.stats()};
    };
    RunRecord ff = record(true);
    RunRecord steps = record(false);
    expectEquivalent(ff, steps);
    // The wait tally should dominate: each load waits ~60 cycles.
    EXPECT_GT(ff.stats.waitAbiCycles[0], ff.stats.readyCycles[0]);
}

/**
 * Timer-driven wakeups: between expiries every stream is idle, so the
 * skip jumps straight from event to event; each expiry must still
 * land on exactly the right cycle.
 */
TEST(FastForwardEquivalence, TimerDrivenInterrupts)
{
    Program p = assemble(R"(
        .org 3              ; stream 0, level 3: timer tick
            jmp tick
        .org 0x20
        main:
            ldi  r1, 0
            stmd r1, [0x40]
            ldi  r2, 6       ; ticks to count
            ldi  r3, 0x09
            mov  imr, r3     ; unmask levels 0 and 3
        wait_loop:
            ldmd r1, [0x40]
            cmp  r1, r2
            bne  wait_loop
            halt
        tick:
            ldmd r1, [0x40]
            addi r1, r1, 1
            stmd r1, [0x40]
            clri 3
            reti
    )");
    auto record = [&](bool fast_forward) {
        Machine m;
        m.setFastForward(fast_forward);
        m.load(p);
        TimerDevice timer(700, 0, 3);
        m.attachDevice(0x2000, 4, &timer);
        m.startStream(0, p.symbol("main"));
        ExecTrace trace(1u << 20);
        m.setExecTrace(&trace);
        m.run(100000, /*stop_when_idle=*/true);
        EXPECT_TRUE(m.idle());
        EXPECT_EQ(m.internalMemory().read(0x40), 6);
        return RunRecord{trace.render(), m.saveState(), m.stats()};
    };
    RunRecord ff = record(true);
    RunRecord steps = record(false);
    expectEquivalent(ff, steps);
}

/** Generated multi-stream workloads: both modes, several seeds. */
TEST(FastForwardEquivalence, GeneratedWorkloads)
{
    for (std::uint64_t seed : {11u, 23u, 47u}) {
        GenOptions opts;
        MultiStreamProgram msp = generateMultiStream(seed, opts);
        auto record = [&](bool fast_forward) {
            MachineRig rig(msp);
            rig.machine().setFastForward(fast_forward);
            ExecTrace trace(1u << 20);
            rig.machine().setExecTrace(&trace);
            rig.start();
            rig.machine().run(rig.cycleBudget());
            EXPECT_TRUE(rig.machine().idle()) << "seed " << seed;
            return RunRecord{trace.render(), rig.machine().saveState(),
                             rig.machine().stats()};
        };
        RunRecord ff = record(true);
        RunRecord steps = record(false);
        expectEquivalent(ff, steps);
    }
}

/**
 * The PR-2 safety net must hold in both stepping modes: generated
 * workloads run under the invariant checker, then the architectural
 * end state is diffed against the sequential reference interpreter.
 */
TEST(FastForwardEquivalence, DifferentialAndInvariantsBothModes)
{
    for (bool fast_forward : {true, false}) {
        for (std::uint64_t seed : {5u, 9u}) {
            GenOptions opts;
            MultiStreamProgram msp = generateMultiStream(seed, opts);
            MachineConfig cfg;
            cfg.fastForward = fast_forward;
            MachineRig rig(msp, cfg);
            InvariantChecker chk(rig.machine());
            rig.machine().setObserver(&chk);
            rig.start();
            rig.machine().run(rig.cycleBudget());
            EXPECT_TRUE(rig.machine().idle())
                << "seed " << seed << " ff " << fast_forward;
            for (const std::string &d : compareWithReference(rig))
                ADD_FAILURE() << "seed " << seed << " ff "
                              << fast_forward << ": " << d;
            EXPECT_TRUE(chk.ok()) << chk.report();
            rig.machine().setObserver(nullptr);
        }
    }
}

TEST(FastForward, EnvironmentOverrideDisables)
{
    ::setenv("DISC_NO_FASTFORWARD", "1", 1);
    Machine off;
    EXPECT_FALSE(off.fastForwardEnabled());
    ::setenv("DISC_NO_FASTFORWARD", "0", 1);
    Machine zero;
    EXPECT_TRUE(zero.fastForwardEnabled());
    ::unsetenv("DISC_NO_FASTFORWARD");
    Machine on;
    EXPECT_TRUE(on.fastForwardEnabled());
    MachineConfig cfg;
    cfg.fastForward = false;
    Machine cfg_off(cfg);
    EXPECT_FALSE(cfg_off.fastForwardEnabled());
}

} // namespace
} // namespace disc
