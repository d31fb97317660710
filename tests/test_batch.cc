/**
 * @file
 * Batched lockstep execution equivalence. Scalar stepping is the
 * oracle: every trace line, statistic, checkpoint byte and run digest
 * a Machine produces under MachineBatch::run()/step() must be
 * bit-identical to the same machine driven by Machine::run()/step(),
 * at every batch width. Width 1 pins the degenerate case, width 3
 * leaves one lane short of the quantum rotation and (with three
 * active streams against a four-deep pipe) exercises multi-slot
 * in-flight retirement, and width 16 is the serve/experiment shape.
 * Equivalence checks assert the hot lane actually engaged so the
 * comparison is non-vacuous; opt-out tests assert the opposite.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "arch/devices.hh"
#include "isa/assembler.hh"
#include "serve/session.hh"
#include "sim/batch.hh"
#include "sim/digest.hh"
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

constexpr unsigned kWidths[] = {1, 3, 16};

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

// ---- Classification ----

TEST(BatchClass, ExternalAndControlOpsNeverRunHot)
{
    // External accesses move wait states; stream/interrupt control
    // moves activity. Either would thaw the frozen chunk tallies.
    EXPECT_FALSE(batchHotUop(Uop::LD));
    EXPECT_FALSE(batchHotUop(Uop::ST));
    EXPECT_FALSE(batchHotUop(Uop::SWI));
    EXPECT_FALSE(batchHotUop(Uop::CLRI));
    EXPECT_FALSE(batchHotUop(Uop::HALT));
    EXPECT_FALSE(batchHotUop(Uop::FORK));
    EXPECT_FALSE(batchHotUop(Uop::FORKR));
    // Slot-table and running-level changes touch neither.
    EXPECT_TRUE(batchHotUop(Uop::SCHED));
    EXPECT_TRUE(batchHotUop(Uop::RETI));
    EXPECT_TRUE(batchHotUop(Uop::ADD));
}

TEST(BatchClass, EveryPeelReasonHasAName)
{
    for (unsigned p = 0; p < kNumBatchPeels; ++p)
        EXPECT_STRNE(batchPeelName(static_cast<BatchPeel>(p)), "?");
}

// ---- Equivalence against scalar stepping ----

/**
 * The equivalence tests exist to exercise the batched hot lane, so
 * the fixture neutralises every process-wide opt-out it depends on:
 * the lane attempts superblocks inside chunks and reads DISC_NO_BATCH
 * at machine construction.
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
 * Stats fields that must match between the batched and scalar paths,
 * as text. The fast-forward and superblock counter families are
 * intentionally absent: they are stepping-mode diagnostics (the hot
 * lane steps spans the scalar path would fast-forward and retries
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
expectEquivalent(const RunRecord &batched, const RunRecord &scalar,
                 const std::string &what)
{
    EXPECT_EQ(batched.trace, scalar.trace) << what;
    EXPECT_EQ(batched.checkpoint, scalar.checkpoint) << what;
    EXPECT_EQ(statsFingerprint(batched.stats),
              statsFingerprint(scalar.stats))
        << what;
}

/**
 * Run @p width copies of a program through one MachineBatch and one
 * scalar reference machine; every lane must reproduce the reference
 * bit for bit. @p setup runs per machine (attach devices, start
 * streams) and must not leave observers attached.
 */
template <typename Setup>
void
checkSample(const Program &p, unsigned width, Cycle budget, Setup setup,
            bool expect_idle = true, BatchStats *batch_stats = nullptr)
{
    RunRecord scalar;
    {
        Machine m;
        m.load(p);
        setup(m);
        ExecTrace trace(1u << 20);
        m.setExecTrace(&trace);
        m.run(budget, expect_idle);
        if (expect_idle) {
            EXPECT_TRUE(m.idle());
        }
        scalar = RunRecord{trace.render(), m.saveState(), m.stats()};
    }

    std::vector<std::unique_ptr<Machine>> ms;
    std::vector<std::unique_ptr<ExecTrace>> traces;
    MachineBatch mb(width);
    for (unsigned i = 0; i < width; ++i) {
        ms.push_back(std::make_unique<Machine>());
        ms.back()->load(p);
        setup(*ms.back());
        traces.push_back(std::make_unique<ExecTrace>(1u << 20));
        ms.back()->setExecTrace(traces.back().get());
        mb.add(ms.back().get());
    }
    mb.run(budget, expect_idle);
    for (unsigned i = 0; i < width; ++i) {
        if (expect_idle) {
            EXPECT_TRUE(ms[i]->idle()) << "lane " << i;
        }
        RunRecord lane{traces[i]->render(), ms[i]->saveState(),
                       ms[i]->stats()};
        expectEquivalent(lane, scalar,
                         strprintf("width %u lane %u", width, i));
    }
    if (batch_stats)
        *batch_stats = mb.stats();
}

TEST_F(BatchEquivalence, GcdSampleAllWidths)
{
    Program p = assemble(
        readFile(std::string(DISC_SOURCE_DIR) + "/examples/asm/gcd.s"));
    for (unsigned width : kWidths) {
        BatchStats bs;
        checkSample(
            p, width, 10000,
            [&](Machine &m) { m.startStream(0, p.symbol("main")); },
            /*expect_idle=*/true, &bs);
        EXPECT_GT(bs.hotCycles, 0u) << "width " << width;
    }
}

TEST_F(BatchEquivalence, RtosMailboxSample)
{
    // No "main" symbol: start at address 0 like disc-run's fallback.
    Program p = assemble(readFile(std::string(DISC_SOURCE_DIR) +
                                  "/examples/asm/rtos_mailbox.s"));
    checkSample(
        p, 3, 200000, [&](Machine &m) { m.startStream(0, 0); },
        /*expect_idle=*/false);
}

/** The pure compute shape the batch exists for: all lanes stay hot. */
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
    for (unsigned width : kWidths) {
        BatchStats bs;
        checkSample(
            p, width, 50000,
            [&](Machine &m) {
                for (StreamId s = 0; s < kNumStreams; ++s)
                    m.startStream(s, p.symbol("entry"));
            },
            /*expect_idle=*/false, &bs);
        // Nothing in this loop leaves the regime: the budget (Done
        // peel), not an exclusion, must end every chunk.
        EXPECT_GT(bs.hotCycles, 0u) << "width " << width;
        EXPECT_EQ(bs.peels[unsigned(BatchPeel::Event)], 0u);
        EXPECT_EQ(bs.peels[unsigned(BatchPeel::Observed)], 0u);
        EXPECT_EQ(bs.peels[unsigned(BatchPeel::Disabled)], 0u);
    }
}

/**
 * step() semantics, three active streams against a four-deep pipe:
 * issue period 3 < depth 4, so a stream's next slot issues while its
 * previous one is still in flight — the multi-slot retirement path
 * the four-stream round-robin shape never reaches.
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
    auto setup = [&](Machine &m) {
        m.startStream(0, p.symbol("e0"));
        m.startStream(1, p.symbol("e1"));
        m.startStream(2, p.symbol("e2"));
    };
    constexpr Cycle kChunk = 9973; // odd: quantum-misaligned on purpose
    constexpr int kChunks = 5;

    RunRecord scalar;
    {
        Machine m;
        m.load(p);
        setup(m);
        ExecTrace trace(1u << 20);
        m.setExecTrace(&trace);
        for (Cycle i = 0; i < kChunk * kChunks; ++i)
            m.step();
        scalar = RunRecord{trace.render(), m.saveState(), m.stats()};
    }
    for (unsigned width : kWidths) {
        std::vector<std::unique_ptr<Machine>> ms;
        std::vector<std::unique_ptr<ExecTrace>> traces;
        MachineBatch mb(width);
        for (unsigned i = 0; i < width; ++i) {
            ms.push_back(std::make_unique<Machine>());
            ms.back()->load(p);
            setup(*ms.back());
            traces.push_back(std::make_unique<ExecTrace>(1u << 20));
            ms.back()->setExecTrace(traces.back().get());
            mb.add(ms.back().get());
        }
        for (int c = 0; c < kChunks; ++c)
            mb.step(kChunk);
        EXPECT_GT(mb.stats().hotCycles, 0u) << "width " << width;
        for (unsigned i = 0; i < width; ++i) {
            RunRecord lane{traces[i]->render(), ms[i]->saveState(),
                           ms[i]->stats()};
            expectEquivalent(lane, scalar,
                             strprintf("width %u lane %u", width, i));
        }
    }
}

/** External accesses leave the regime and re-enter it, per lane. */
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
    constexpr unsigned kWidth = 3;
    auto record = [&](bool use_batch) {
        std::vector<std::unique_ptr<Machine>> ms;
        std::vector<std::unique_ptr<ExternalMemoryDevice>> devs;
        std::vector<std::unique_ptr<ExecTrace>> traces;
        MachineBatch mb(kWidth);
        for (unsigned i = 0; i < kWidth; ++i) {
            ms.push_back(std::make_unique<Machine>());
            ms.back()->load(p);
            devs.push_back(
                std::make_unique<ExternalMemoryDevice>(64, 60));
            devs.back()->poke(0, 5);
            ms.back()->attachDevice(0x1000, 64, devs.back().get());
            ms.back()->startStream(0, p.symbol("main"));
            traces.push_back(std::make_unique<ExecTrace>(1u << 20));
            ms.back()->setExecTrace(traces.back().get());
        }
        std::vector<RunRecord> out;
        if (use_batch) {
            for (auto &m : ms)
                mb.add(m.get());
            mb.run(200000);
            // The LD/ST pair must have peeled lanes out of the hot
            // chunk (non-hot issue) and the 60-cycle completions must
            // have ended chunks at the event horizon.
            EXPECT_GT(mb.stats().peels[unsigned(BatchPeel::NonHot)], 0u);
            EXPECT_GT(mb.stats().hotCycles, 0u);
        } else {
            for (auto &m : ms)
                m->run(200000);
        }
        for (unsigned i = 0; i < kWidth; ++i) {
            EXPECT_TRUE(ms[i]->idle()) << "lane " << i;
            out.push_back(RunRecord{traces[i]->render(),
                                    ms[i]->saveState(), ms[i]->stats()});
        }
        return out;
    };
    std::vector<RunRecord> batched = record(true);
    std::vector<RunRecord> scalar = record(false);
    for (unsigned i = 0; i < kWidth; ++i)
        expectEquivalent(batched[i], scalar[i],
                         strprintf("lane %u", i));
}

/** Timer interrupts: vector delivery must be identical in batch. */
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
    constexpr unsigned kWidth = 3;
    auto record = [&](bool use_batch) {
        std::vector<std::unique_ptr<Machine>> ms;
        std::vector<std::unique_ptr<TimerDevice>> timers;
        std::vector<std::unique_ptr<ExecTrace>> traces;
        MachineBatch mb(kWidth);
        for (unsigned i = 0; i < kWidth; ++i) {
            ms.push_back(std::make_unique<Machine>());
            ms.back()->load(p);
            timers.push_back(std::make_unique<TimerDevice>(700, 0, 3));
            ms.back()->attachDevice(0x2000, 4, timers.back().get());
            ms.back()->startStream(0, p.symbol("main"));
            traces.push_back(std::make_unique<ExecTrace>(1u << 20));
            ms.back()->setExecTrace(traces.back().get());
        }
        std::vector<RunRecord> out;
        if (use_batch) {
            for (auto &m : ms)
                mb.add(m.get());
            mb.run(100000, /*stop_when_idle=*/true);
        } else {
            for (auto &m : ms)
                m->run(100000, /*stop_when_idle=*/true);
        }
        for (unsigned i = 0; i < kWidth; ++i) {
            EXPECT_TRUE(ms[i]->idle()) << "lane " << i;
            EXPECT_EQ(ms[i]->internalMemory().read(0x40), 6)
                << "lane " << i;
            out.push_back(RunRecord{traces[i]->render(),
                                    ms[i]->saveState(), ms[i]->stats()});
        }
        return out;
    };
    std::vector<RunRecord> batched = record(true);
    std::vector<RunRecord> scalar = record(false);
    for (unsigned i = 0; i < kWidth; ++i)
        expectEquivalent(batched[i], scalar[i],
                         strprintf("lane %u", i));
}

/** Generated multi-stream workloads, several seeds, batched. */
TEST_F(BatchEquivalence, GeneratedWorkloads)
{
    for (std::uint64_t seed : {13u, 29u, 53u}) {
        GenOptions opts;
        MultiStreamProgram msp = generateMultiStream(seed, opts);

        RunRecord scalar;
        {
            MachineRig rig(msp);
            ExecTrace trace(1u << 20);
            rig.machine().setExecTrace(&trace);
            rig.start();
            rig.machine().run(rig.cycleBudget());
            EXPECT_TRUE(rig.machine().idle()) << "seed " << seed;
            scalar = RunRecord{trace.render(), rig.machine().saveState(),
                               rig.machine().stats()};
        }

        constexpr unsigned kWidth = 3;
        std::vector<std::unique_ptr<MachineRig>> rigs;
        std::vector<std::unique_ptr<ExecTrace>> traces;
        MachineBatch mb(kWidth);
        Cycle budget = 0;
        for (unsigned i = 0; i < kWidth; ++i) {
            rigs.push_back(std::make_unique<MachineRig>(msp));
            traces.push_back(std::make_unique<ExecTrace>(1u << 20));
            rigs.back()->machine().setExecTrace(traces.back().get());
            rigs.back()->start();
            budget = rigs.back()->cycleBudget();
            mb.add(&rigs.back()->machine());
        }
        mb.run(budget);
        for (unsigned i = 0; i < kWidth; ++i) {
            EXPECT_TRUE(rigs[i]->machine().idle())
                << "seed " << seed << " lane " << i;
            RunRecord lane{traces[i]->render(),
                           rigs[i]->machine().saveState(),
                           rigs[i]->machine().stats()};
            expectEquivalent(lane, scalar,
                             strprintf("seed %llu lane %u",
                                       (unsigned long long)seed, i));
        }
    }
}

/**
 * The verification safety net holds under the batch API. Observers
 * need every cycle, so these lanes peel to the scalar path — the
 * assertion is that batching an observed machine degrades to exactly
 * scalar behaviour, not that the hot lane engages.
 */
TEST_F(BatchEquivalence, ObservedLanesPeelButStayCorrect)
{
    for (std::uint64_t seed : {7u, 19u}) {
        GenOptions opts;
        MultiStreamProgram msp = generateMultiStream(seed, opts);
        constexpr unsigned kWidth = 3;
        std::vector<std::unique_ptr<MachineRig>> rigs;
        std::vector<std::unique_ptr<InvariantChecker>> checkers;
        MachineBatch mb(kWidth);
        Cycle budget = 0;
        for (unsigned i = 0; i < kWidth; ++i) {
            rigs.push_back(std::make_unique<MachineRig>(msp));
            checkers.push_back(
                std::make_unique<InvariantChecker>(rigs.back()->machine()));
            rigs.back()->machine().setObserver(checkers.back().get());
            rigs.back()->start();
            budget = rigs.back()->cycleBudget();
            mb.add(&rigs.back()->machine());
        }
        mb.run(budget);
        EXPECT_GT(mb.stats().peels[unsigned(BatchPeel::Observed)], 0u);
        EXPECT_EQ(mb.stats().hotCycles, 0u);
        for (unsigned i = 0; i < kWidth; ++i) {
            EXPECT_TRUE(rigs[i]->machine().idle())
                << "seed " << seed << " lane " << i;
            for (const std::string &d : compareWithReference(*rigs[i]))
                ADD_FAILURE() << "seed " << seed << " lane " << i
                              << ": " << d;
            EXPECT_TRUE(checkers[i]->ok()) << checkers[i]->report();
            rigs[i]->machine().setObserver(nullptr);
        }
    }
}

// ---- Checkpoints and the serve park/restore path ----

/** Same discipline as BatchEquivalence (see above). */
class BatchCheckpoint : public ::testing::Test
{
    ScopedEnv sblocks_{"DISC_NO_SUPERBLOCK", "0"};
    ScopedEnv batch_{"DISC_NO_BATCH", "0"};
};

/** A multi-stream loop the hot lane is guaranteed to engage on. */
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
    // (straight-through and restored, batched and scalar) agree.
    Program p = hotLoop(5);
    auto start = [&](Machine &m) {
        for (StreamId s = 0; s < kNumStreams; ++s)
            m.startStream(s, p.symbol("main"));
    };
    auto drive = [&](Machine &m, bool use_batch, Cycle n) {
        if (use_batch) {
            MachineBatch mb(1);
            mb.add(&m);
            mb.run(n, false);
            EXPECT_GT(mb.stats().hotCycles, 0u);
        } else {
            m.run(n, false);
        }
    };
    auto finish = [&](bool use_batch, bool via_checkpoint) {
        Machine m;
        m.load(p);
        start(m);
        if (via_checkpoint) {
            drive(m, use_batch, 4000);
            std::vector<std::uint8_t> snap = m.saveState();
            Machine r;
            r.load(p);
            r.restoreState(snap);
            drive(r, use_batch, 4000);
            return r.saveState();
        }
        drive(m, use_batch, 8000);
        return m.saveState();
    };
    std::vector<std::uint8_t> want = finish(false, false);
    EXPECT_EQ(finish(false, true), want);
    EXPECT_EQ(finish(true, false), want);
    EXPECT_EQ(finish(true, true), want);
}

TEST_F(BatchCheckpoint, ServeParkRestoreStaysBitIdentical)
{
    // disc-serve eviction under batched dispatch: three sessions, two
    // resident slots, leases advanced pairwise through a MachineBatch
    // so every round parks one session and restores another. The
    // offline control never parks and never batches; each session's
    // digest must reproduce it exactly.
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() / "disc_batch_park_restore").string();
    fs::remove_all(dir);
    serve::SessionRegistry reg(dir, 2);
    auto spec = [](const std::string &id, unsigned k) {
        serve::SessionSpec s;
        s.id = id;
        s.tenant = 0;
        s.source = strprintf(".org 0x20\n"
                             "main:\n"
                             "    ldi r1, %u\n"
                             "loop:\n"
                             "    add r2, r2, r1\n"
                             "    sub r3, r2, r1\n"
                             "    jmp loop\n",
                             k);
        return s;
    };
    reg.open(spec("a", 2));
    reg.open(spec("b", 6));
    reg.open(spec("c", 9));
    MachineBatch mb(2);
    const char *pairs[][2] = {{"a", "b"}, {"b", "c"}, {"c", "a"}};
    for (int round = 0; round < 2; ++round) {
        for (auto &pr : pairs) {
            serve::SessionLease la = reg.acquire(pr[0]);
            serve::SessionLease lb = reg.acquire(pr[1]);
            mb.clear();
            mb.add(&la->machine());
            mb.add(&lb->machine());
            mb.run(250, false);
        }
    }
    EXPECT_GT(reg.evictedTotal(), 0u);
    EXPECT_GT(reg.restoredTotal(), 0u);
    EXPECT_GT(mb.stats().hotCycles, 0u);
    auto offline = [&](unsigned k) {
        serve::SessionSpec s = spec("x", k);
        Program prog = assemble(s.source);
        Machine m;
        m.load(prog);
        ExecTrace trace(serve::kSessionTraceEntries);
        m.setExecTrace(&trace);
        m.startStream(0, prog.symbol("main"));
        m.run(1000, false); // 2 rounds x 2 appearances x 250 cycles
        return runDigest(m, trace);
    };
    {
        serve::SessionLease lease = reg.acquire("a");
        EXPECT_EQ(serve::sessionDigest(*lease), offline(2));
    }
    {
        serve::SessionLease lease = reg.acquire("b");
        EXPECT_EQ(serve::sessionDigest(*lease), offline(6));
    }
    {
        serve::SessionLease lease = reg.acquire("c");
        EXPECT_EQ(serve::sessionDigest(*lease), offline(9));
    }
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
    // With the opt-out set, MachineBatch must stay a plain sequential
    // runner: same results, hot lane never engaged.
    ScopedEnv no_batch("DISC_NO_BATCH", "1");
    Program p = hotLoop(1);
    auto run = [&](bool use_batch) {
        Machine m;
        m.load(p);
        m.startStream(0, p.symbol("main"));
        if (use_batch) {
            MachineBatch mb(1);
            mb.add(&m);
            mb.run(10000, false);
            EXPECT_EQ(mb.stats().hotCycles, 0u);
            EXPECT_GT(mb.stats().peels[unsigned(BatchPeel::Disabled)],
                      0u);
        } else {
            m.run(10000, false);
        }
        return m.saveState();
    };
    EXPECT_EQ(run(true), run(false));
}

} // namespace
} // namespace disc
