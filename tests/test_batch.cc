/**
 * @file
 * Hot-chunk equivalence. Per-cycle stepping is the oracle: every
 * trace line, statistic, checkpoint byte and run digest a Machine
 * produces under run() with hot chunks (MachineConfig::batchExec, the
 * default) must be bit-identical to the same machine run with
 * batchExec = false. Equivalence checks assert that hot chunks
 * actually engaged so the comparison is non-vacuous; opt-out tests
 * assert the opposite.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

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

/** Save, override, and on destruction restore one env variable. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = ::getenv(name))
            saved_ = old;
        else
            unset_ = true;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (unset_)
            ::unsetenv(name_);
        else
            ::setenv(name_, saved_.c_str(), 1);
    }

  private:
    const char *name_;
    std::string saved_;
    bool unset_ = false;
};

std::uint64_t
hotExitsTotal(const MachineStats &st)
{
    std::uint64_t n = 0;
    for (std::uint64_t e : st.hotExits)
        n += e;
    return n;
}

// ---- Classification ----

TEST(BatchClass, ExternalAndControlOpsNeverRunHot)
{
    // External accesses move wait states; stream/interrupt control
    // moves activity. Either would thaw the frozen chunk tallies.
    EXPECT_FALSE(hotChunkUop(Uop::LD));
    EXPECT_FALSE(hotChunkUop(Uop::ST));
    EXPECT_FALSE(hotChunkUop(Uop::SWI));
    EXPECT_FALSE(hotChunkUop(Uop::CLRI));
    EXPECT_FALSE(hotChunkUop(Uop::HALT));
    EXPECT_FALSE(hotChunkUop(Uop::FORK));
    EXPECT_FALSE(hotChunkUop(Uop::FORKR));
    // Slot-table and running-level changes touch neither.
    EXPECT_TRUE(hotChunkUop(Uop::SCHED));
    EXPECT_TRUE(hotChunkUop(Uop::RETI));
    EXPECT_TRUE(hotChunkUop(Uop::ADD));
}

TEST(BatchClass, EveryPeelReasonHasAName)
{
    for (unsigned e = 0; e < kNumHotExits; ++e)
        EXPECT_STRNE(hotExitName(static_cast<HotExit>(e)), "?");
}

// ---- Equivalence against per-cycle stepping ----

/**
 * The equivalence tests exist to exercise hot chunks, so the fixture
 * neutralises every process-wide opt-out they depend on: chunks
 * attempt superblocks and read DISC_NO_BATCH at machine construction.
 */
class BatchEquivalence : public ::testing::Test
{
    ScopedEnv sblocks_{"DISC_NO_SUPERBLOCK", "0"};
    ScopedEnv batch_{"DISC_NO_BATCH", "0"};
};

/** Everything one run produces that the other must reproduce. */
struct RunRecord
{
    std::string trace;
    std::vector<std::uint8_t> checkpoint;
    MachineStats stats;
};

/**
 * Stats fields that must match with and without hot chunks, as text.
 * The fast-forward, superblock and hot-chunk counter families are
 * intentionally absent: they are stepping-mode diagnostics (a chunk
 * steps spans per-cycle run() would fast-forward and retries
 * superblocks on its own cadence), excluded from checkpoints and
 * digests for exactly this reason.
 */
std::string
statsFingerprint(const MachineStats &st)
{
    std::string fp = strprintf(
        "c=%llu b=%llu r=%llu j=%llu q=%llu w=%llu d=%llu bub=%llu "
        "rd=%llu wr=%llu rej=%llu vec=%llu ill=%llu",
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
        (unsigned long long)st.vectorsTaken,
        (unsigned long long)st.illegalInstructions);
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
expectEquivalent(const RunRecord &hot, const RunRecord &percycle,
                 const std::string &what)
{
    EXPECT_EQ(hot.trace, percycle.trace) << what;
    EXPECT_EQ(hot.checkpoint, percycle.checkpoint) << what;
    EXPECT_EQ(statsFingerprint(hot.stats), statsFingerprint(percycle.stats))
        << what;
}

/**
 * Build a machine with @p setup (load, attach devices, start streams;
 * no observers), run it by @p drive with hot chunks on or off, and
 * record the result.
 */
RunRecord
record(bool hot, const std::function<void(Machine &)> &setup,
       const std::function<void(Machine &)> &drive)
{
    Machine m;
    m.setBatchExec(hot);
    setup(m);
    ExecTrace trace(1u << 20);
    m.setExecTrace(&trace);
    drive(m);
    return RunRecord{trace.render(), m.saveState(), m.stats()};
}

/**
 * Run @p setup's machine by @p drive with and without hot chunks;
 * the two must agree bit for bit. Returns the hot run's record.
 */
RunRecord
checkHotAgainstPerCycle(const std::function<void(Machine &)> &setup,
                        const std::function<void(Machine &)> &drive,
                        const std::string &what)
{
    RunRecord hot = record(true, setup, drive);
    RunRecord percycle = record(false, setup, drive);
    EXPECT_EQ(percycle.stats.hotCycles, 0u) << what;
    EXPECT_EQ(hotExitsTotal(percycle.stats), 0u) << what;
    expectEquivalent(hot, percycle, what);
    return hot;
}

/** drive(): one run() call that must leave the machine idle. */
std::function<void(Machine &)>
runToIdle(Cycle budget)
{
    return [budget](Machine &m) {
        m.run(budget);
        EXPECT_TRUE(m.idle());
    };
}

TEST_F(BatchEquivalence, GcdSample)
{
    Program p = assemble(
        readFile(std::string(DISC_SOURCE_DIR) + "/examples/asm/gcd.s"));
    RunRecord hot = checkHotAgainstPerCycle(
        [&](Machine &m) {
            m.load(p);
            m.startStream(0, p.symbol("main"));
        },
        runToIdle(10000), "gcd");
    // One active stream: superblocks entered from the chunks may
    // cover every busy cycle, so only chunk entries are certain.
    EXPECT_GT(hotExitsTotal(hot.stats), 0u);
}

TEST_F(BatchEquivalence, RtosMailboxSample)
{
    // No "main" symbol: start at address 0 like disc-run's fallback.
    Program p = assemble(readFile(std::string(DISC_SOURCE_DIR) +
                                  "/examples/asm/rtos_mailbox.s"));
    checkHotAgainstPerCycle(
        [&](Machine &m) {
            m.load(p);
            m.startStream(0, 0);
        },
        [](Machine &m) { m.run(200000, false); }, "rtos_mailbox");
}

/** The pure compute shape hot chunks exist for: every cycle runs hot. */
TEST_F(BatchEquivalence, ComputeLoopStaysHot)
{
    Program p = assemble(R"(
        .org 0x20
        entry:
            ldi r1, 1
            ldi r2, 2
        loop:
            add r3, r1, r2
            add r4, r3, r2
            sub r5, r4, r1
            jmp loop
    )");
    constexpr Cycle kBudget = 50000;
    constexpr int kCalls = 3;
    RunRecord hot = checkHotAgainstPerCycle(
        [&](Machine &m) {
            m.load(p);
            for (StreamId s = 0; s < kNumStreams; ++s)
                m.startStream(s, p.symbol("entry"));
        },
        [&](Machine &m) {
            for (int i = 0; i < kCalls; ++i)
                m.run(kBudget, false);
        },
        "compute loop");
    // Nothing in this loop leaves the regime: one chunk per run()
    // call, ended by the budget, covers every cycle.
    const MachineStats &st = hot.stats;
    EXPECT_EQ(st.cycles, kBudget * kCalls);
    EXPECT_EQ(st.hotCycles, st.cycles);
    EXPECT_EQ(st.hotExits[unsigned(HotExit::Budget)], unsigned(kCalls));
    EXPECT_EQ(hotExitsTotal(st), unsigned(kCalls));
}

/**
 * Three active streams against a four-deep pipe: issue period 3 <
 * depth 4, so a stream's next slot issues while its previous one is
 * still in flight — the multi-slot retirement path the four-stream
 * round-robin shape never reaches. The run is split into odd-sized
 * run() calls so chunks also start with a full pipe.
 */
TEST_F(BatchEquivalence, SteppedMultiFlightStreams)
{
    Program p = assemble(R"(
        .org 0x20
        e0:
            ldi r1, 1
        l0: add r2, r2, r1
            sub r3, r2, r1
            jmp l0
        e1:
            ldi r1, 3
        l1: add r2, r2, r1
            add r3, r3, r2
            jmp l1
        e2:
            ldi r1, 5
        l2: sub r2, r2, r1
            add r3, r2, r2
            jmp l2
    )");
    constexpr Cycle kChunk = 9973; // odd on purpose
    constexpr int kChunks = 5;
    RunRecord hot = checkHotAgainstPerCycle(
        [&](Machine &m) {
            m.load(p);
            m.startStream(0, p.symbol("e0"));
            m.startStream(1, p.symbol("e1"));
            m.startStream(2, p.symbol("e2"));
        },
        [&](Machine &m) {
            for (int c = 0; c < kChunks; ++c)
                m.run(kChunk, false);
        },
        "three streams");
    EXPECT_EQ(hot.stats.hotCycles, kChunk * kChunks);
}

/** External accesses leave the regime and re-enter it. */
TEST_F(BatchEquivalence, SlowDeviceLoadLoop)
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
    std::vector<std::unique_ptr<ExternalMemoryDevice>> devs;
    RunRecord hot = checkHotAgainstPerCycle(
        [&](Machine &m) {
            m.load(p);
            devs.push_back(std::make_unique<ExternalMemoryDevice>(64, 60));
            devs.back()->poke(0, 5);
            m.attachDevice(0x1000, 64, devs.back().get());
            m.startStream(0, p.symbol("main"));
        },
        runToIdle(200000), "slow device");
    // The LD/ST pair must have ended chunks at issue, and the
    // 60-cycle accesses must have stalled them until completion.
    EXPECT_GT(hot.stats.hotExits[unsigned(HotExit::NonHot)], 0u);
    EXPECT_GT(hot.stats.hotExits[unsigned(HotExit::Stall)], 0u);
}

/** Timer interrupts: vector delivery must be identical in chunks. */
TEST_F(BatchEquivalence, TimerDrivenInterrupts)
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
    std::vector<std::unique_ptr<TimerDevice>> timers;
    RunRecord hot = checkHotAgainstPerCycle(
        [&](Machine &m) {
            m.load(p);
            timers.push_back(std::make_unique<TimerDevice>(700, 0, 3));
            m.attachDevice(0x2000, 4, timers.back().get());
            m.startStream(0, p.symbol("main"));
        },
        [](Machine &m) {
            m.run(100000, /*stop_when_idle=*/true);
            EXPECT_TRUE(m.idle());
            EXPECT_EQ(m.internalMemory().read(0x40), 6);
        },
        "timer");
    // Timer expiries are queued events: they end chunks at the horizon.
    EXPECT_GT(hot.stats.hotExits[unsigned(HotExit::Event)], 0u);
}

/**
 * A trap raised at EX inside a chunk: WDEC at the window floor raises
 * level 6 on its own stream, which must stop issuing in that very
 * cycle (its vector waits for the pipe to drain) as it does under
 * per-cycle stepping.
 */
TEST_F(BatchEquivalence, WindowTrapInsideChunk)
{
    Program p = assemble(R"(
        .org 6              ; stream 0, level 6: stack window trap
            jmp trap
        .org 0x20
        main:
            ldi  r3, 0x41
            mov  imr, r3     ; unmask levels 0 and 6
            ldi  g0, 0
            ldi  g1, 40      ; traps to take
        loop:
            addi g2, g2, 1
            addi g3, g3, 3
            addi g2, g2, 1
            addi g3, g3, 3
            addi g2, g2, 1
            addi g3, g3, 3
            wdec             ; underflows: AWP starts at the floor
            addi g2, g2, 1   ; independent of the WDEC: would issue
            addi g3, g3, 3   ; in the trap cycle if the stream did
            addi g0, g0, 1   ; not wait for its vector
            cmp  g0, g1
            bne  loop
            halt
        trap:
            clri 6
            reti
    )");
    RunRecord hot = checkHotAgainstPerCycle(
        [&](Machine &m) {
            m.setSuperblockExec(false); // keep the loop on the chunks
            m.load(p);
            m.startStream(0, p.symbol("main"));
        },
        runToIdle(20000), "window trap");
    EXPECT_GE(hot.stats.stackOverflows, 40u);
    EXPECT_GT(hot.stats.hotCycles, 0u);
}

/** Generated multi-stream workloads, several seeds. */
TEST_F(BatchEquivalence, GeneratedWorkloads)
{
    for (std::uint64_t seed : {13u, 29u, 53u}) {
        GenOptions opts;
        MultiStreamProgram msp = generateMultiStream(seed, opts);
        auto run = [&](bool hot) {
            MachineRig rig(msp);
            rig.machine().setBatchExec(hot);
            ExecTrace trace(1u << 20);
            rig.machine().setExecTrace(&trace);
            rig.start();
            rig.machine().run(rig.cycleBudget());
            EXPECT_TRUE(rig.machine().idle()) << "seed " << seed;
            return RunRecord{trace.render(), rig.machine().saveState(),
                             rig.machine().stats()};
        };
        RunRecord hot = run(true);
        EXPECT_GT(hot.stats.hotCycles, 0u) << "seed " << seed;
        expectEquivalent(hot, run(false),
                         strprintf("seed %llu", (unsigned long long)seed));
    }
}

/**
 * The verification safety net holds with hot chunks enabled.
 * Observers need every cycle, so run() never enters a chunk — the
 * assertion is that an observed machine degrades to exactly per-cycle
 * behaviour, not that chunks engage.
 */
TEST_F(BatchEquivalence, ObservedLanesPeelButStayCorrect)
{
    for (std::uint64_t seed : {7u, 19u}) {
        GenOptions opts;
        MultiStreamProgram msp = generateMultiStream(seed, opts);
        MachineRig rig(msp);
        InvariantChecker checker(rig.machine());
        rig.machine().setObserver(&checker);
        rig.start();
        rig.machine().run(rig.cycleBudget());
        EXPECT_EQ(rig.machine().stats().hotCycles, 0u);
        EXPECT_EQ(hotExitsTotal(rig.machine().stats()), 0u);
        EXPECT_TRUE(rig.machine().idle()) << "seed " << seed;
        for (const std::string &d : compareWithReference(rig))
            ADD_FAILURE() << "seed " << seed << ": " << d;
        EXPECT_TRUE(checker.ok()) << checker.report();
        rig.machine().setObserver(nullptr);
    }
}

// ---- Checkpoints ----

/** Same discipline as BatchEquivalence (see above). */
class BatchCheckpoint : public ::testing::Test
{
    ScopedEnv sblocks_{"DISC_NO_SUPERBLOCK", "0"};
    ScopedEnv batch_{"DISC_NO_BATCH", "0"};
};

/** A multi-stream loop hot chunks are guaranteed to engage on. */
Program
hotLoop(unsigned k)
{
    return assemble(strprintf(".org 0x20\n"
                              "main:\n"
                              "    ldi r1, %u\n"
                              "    ldi r2, 2\n"
                              "loop:\n"
                              "    add r3, r1, r2\n"
                              "    add r4, r3, r2\n"
                              "    sub r5, r4, r1\n"
                              "    jmp loop\n",
                              k));
}

TEST_F(BatchCheckpoint, RestoredRunMatchesBatchAndScalar)
{
    // Checkpoint at N cycles, continue M more: all four end states
    // (straight-through and restored, hot and per-cycle) agree.
    Program p = hotLoop(5);
    auto drive = [&](Machine &m, Cycle n) {
        m.run(n, false);
        if (m.batchExecEnabled()) {
            EXPECT_GT(m.stats().hotCycles, 0u);
        }
    };
    auto finish = [&](bool hot, bool via_checkpoint) {
        Machine m;
        m.setBatchExec(hot);
        m.load(p);
        for (StreamId s = 0; s < kNumStreams; ++s)
            m.startStream(s, p.symbol("main"));
        if (via_checkpoint) {
            drive(m, 4000);
            std::vector<std::uint8_t> snap = m.saveState();
            Machine r;
            r.setBatchExec(hot);
            r.load(p);
            r.restoreState(snap);
            // Diagnostics are not architectural state.
            EXPECT_EQ(r.stats().hotCycles, 0u);
            EXPECT_EQ(hotExitsTotal(r.stats()), 0u);
            drive(r, 4000);
            return r.saveState();
        }
        drive(m, 8000);
        return m.saveState();
    };
    std::vector<std::uint8_t> want = finish(false, false);
    EXPECT_EQ(finish(false, true), want);
    EXPECT_EQ(finish(true, false), want);
    EXPECT_EQ(finish(true, true), want);
}

// ---- Opt-outs ----

TEST(BatchExec, EnvironmentOverrideDisables)
{
    // Restores whatever the suite was launched with on scope exit.
    ScopedEnv restore("DISC_NO_BATCH", "1");
    Machine off;
    EXPECT_FALSE(off.batchExecEnabled());
    ::setenv("DISC_NO_BATCH", "0", 1);
    Machine zero;
    EXPECT_TRUE(zero.batchExecEnabled());
    ::unsetenv("DISC_NO_BATCH");
    Machine on;
    EXPECT_TRUE(on.batchExecEnabled());
    MachineConfig cfg;
    cfg.batchExec = false;
    Machine cfg_off(cfg);
    EXPECT_FALSE(cfg_off.batchExecEnabled());
}

TEST(BatchExec, DisabledBatchRunsSequentiallyAndIdentically)
{
    // With the opt-out set, run() must never enter a hot chunk and
    // must end where a run with chunks does.
    ScopedEnv no_batch("DISC_NO_BATCH", "1");
    Program p = hotLoop(1);
    auto run = [&](bool force_hot) {
        Machine m;
        if (force_hot)
            m.setBatchExec(true);
        m.load(p);
        m.startStream(0, p.symbol("main"));
        m.run(10000, false);
        if (force_hot) {
            EXPECT_GT(hotExitsTotal(m.stats()), 0u);
        } else {
            EXPECT_EQ(m.stats().hotCycles, 0u);
            EXPECT_EQ(hotExitsTotal(m.stats()), 0u);
        }
        return m.saveState();
    };
    EXPECT_EQ(run(true), run(false));
}

} // namespace
} // namespace disc
