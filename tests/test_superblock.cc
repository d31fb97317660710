/**
 * @file
 * Superblock execution tier equivalence and translation-cache
 * hygiene. The per-cycle uop path is the oracle: every trace line,
 * statistic, checkpoint byte and run digest must be bit-identical
 * with the superblock tier on (the default) and off
 * (DISC_NO_SUPERBLOCK / MachineConfig::superblockExec=false), and
 * every equivalence check here also asserts the tier actually engaged
 * so the comparison is non-vacuous. The cache tests pin the
 * invalidation points: program load, reset, checkpoint restore, and
 * the disc-serve park/restore path built on them.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "arch/devices.hh"
#include "isa/assembler.hh"
#include "serve/session.hh"
#include "sim/digest.hh"
#include "sim/machine.hh"
#include "sim/superblock.hh"
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

// ---- Classification ----

TEST(SuperblockClass, ExternalAndCrossStreamOpsNeverExecuteInBlock)
{
    EXPECT_FALSE(superblockExecutable(Uop::LD));
    EXPECT_FALSE(superblockExecutable(Uop::ST));
    EXPECT_FALSE(superblockExecutable(Uop::SWI));
    EXPECT_FALSE(superblockExecutable(Uop::FORK));
    EXPECT_FALSE(superblockExecutable(Uop::FORKR));
    EXPECT_FALSE(superblockExecutable(Uop::SCHED));
    for (unsigned u = 0; u < kNumUops; ++u) {
        Uop uop = static_cast<Uop>(u);
        std::uint8_t cls = superblockClass(uop);
        if (!superblockExecutable(uop)) {
            EXPECT_EQ(cls, kSbClsNonExec) << uopName(uop);
            continue;
        }
        // Control implies the control class bit, nothing else does.
        EXPECT_EQ((cls & kSbClsControl) != 0, superblockControl(uop))
            << uopName(uop);
    }
}

TEST(SuperblockClass, EveryBailReasonHasAName)
{
    for (unsigned b = 0; b < kNumSbBails; ++b)
        EXPECT_STRNE(sbBailName(static_cast<SbBail>(b)), "?");
}

// ---- Machine equivalence ----

/**
 * The equivalence and cache tests exist to exercise the tier, so the
 * fixtures neutralise its process-wide opt-out: the machines here
 * (including the ones disc-serve sessions construct internally) read
 * DISC_NO_SUPERBLOCK at construction.
 */
class SuperblockEquivalence : public ::testing::Test
{
    ScopedEnv sblocks_{"DISC_NO_SUPERBLOCK", "0"};
};

/** Everything one run produces that the other must reproduce. */
struct RunRecord
{
    std::string trace;
    std::vector<std::uint8_t> checkpoint;
    MachineStats stats;
};

/**
 * Stats fields that must match between execution tiers, as text. The
 * superblock tallies themselves (superblockCycles/Enters/Bails) are
 * intentionally absent: they describe which tier ran, not what the
 * machine did.
 */
std::string
statsFingerprint(const MachineStats &st)
{
    std::string fp = strprintf(
        "c=%llu b=%llu r=%llu j=%llu q=%llu w=%llu d=%llu bub=%llu "
        "rd=%llu wr=%llu rej=%llu vec=%llu ill=%llu ff=%llu",
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
        (unsigned long long)st.illegalInstructions,
        (unsigned long long)st.fastForwardedCycles);
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
expectEquivalent(const RunRecord &sblock, const RunRecord &plain)
{
    EXPECT_EQ(sblock.trace, plain.trace);
    EXPECT_EQ(sblock.checkpoint, plain.checkpoint);
    EXPECT_EQ(statsFingerprint(sblock.stats),
              statsFingerprint(plain.stats));
    // The comparison only means something if the tier actually ran
    // in one mode and never in the other.
    EXPECT_GT(sblock.stats.superblockCycles, 0u);
    EXPECT_EQ(plain.stats.superblockCycles, 0u);
}

/** Run a program through both tiers and demand identity. */
template <typename Setup>
void
checkSample(const Program &p, Cycle budget, Setup setup,
            bool expect_idle = true)
{
    auto record = [&](bool use_sblock) {
        Machine m;
        m.setSuperblockExec(use_sblock);
        m.load(p);
        setup(m);
        ExecTrace trace(1u << 20);
        m.setExecTrace(&trace);
        m.run(budget, expect_idle);
        if (expect_idle) {
            EXPECT_TRUE(m.idle());
        }
        return RunRecord{trace.render(), m.saveState(), m.stats()};
    };
    expectEquivalent(record(true), record(false));
}

TEST_F(SuperblockEquivalence, GcdSample)
{
    Program p = assemble(
        readFile(std::string(DISC_SOURCE_DIR) + "/examples/asm/gcd.s"));
    checkSample(p, 10000,
                [&](Machine &m) { m.startStream(0, p.symbol("main")); });
}

TEST_F(SuperblockEquivalence, RtosMailboxSample)
{
    // No "main" symbol: start at address 0 like disc-run's fallback.
    Program p = assemble(readFile(std::string(DISC_SOURCE_DIR) +
                                  "/examples/asm/rtos_mailbox.s"));
    checkSample(
        p, 200000, [&](Machine &m) { m.startStream(0, 0); },
        /*expect_idle=*/false);
}

/** External accesses force the Abi bail and re-engagement. */
TEST_F(SuperblockEquivalence, SlowDeviceLoadLoop)
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
    auto record = [&](bool use_sblock) {
        Machine m;
        m.setSuperblockExec(use_sblock);
        m.load(p);
        ExternalMemoryDevice dev(64, 60);
        dev.poke(0, 5);
        m.attachDevice(0x1000, 64, &dev);
        m.startStream(0, p.symbol("main"));
        ExecTrace trace(1u << 20);
        m.setExecTrace(&trace);
        m.run(200000);
        EXPECT_TRUE(m.idle());
        if (use_sblock) {
            EXPECT_GT(
                m.stats().superblockBails[unsigned(SbBail::Abi)], 0u);
        }
        return RunRecord{trace.render(), m.saveState(), m.stats()};
    };
    expectEquivalent(record(true), record(false));
}

/** Timer interrupts cross the Interrupt bail and vector delivery. */
TEST_F(SuperblockEquivalence, TimerDrivenInterrupts)
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
    auto record = [&](bool use_sblock) {
        Machine m;
        m.setSuperblockExec(use_sblock);
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
    expectEquivalent(record(true), record(false));
}

/** Generated multi-stream workloads, several seeds, both tiers. */
TEST_F(SuperblockEquivalence, GeneratedWorkloads)
{
    for (std::uint64_t seed : {13u, 29u, 53u}) {
        GenOptions opts;
        MultiStreamProgram msp = generateMultiStream(seed, opts);
        auto record = [&](bool use_sblock) {
            MachineRig rig(msp);
            rig.machine().setSuperblockExec(use_sblock);
            ExecTrace trace(1u << 20);
            rig.machine().setExecTrace(&trace);
            rig.start();
            rig.machine().run(rig.cycleBudget());
            EXPECT_TRUE(rig.machine().idle()) << "seed " << seed;
            return RunRecord{trace.render(), rig.machine().saveState(),
                             rig.machine().stats()};
        };
        RunRecord sblock = record(true);
        RunRecord plain = record(false);
        EXPECT_EQ(sblock.trace, plain.trace) << "seed " << seed;
        EXPECT_EQ(sblock.checkpoint, plain.checkpoint)
            << "seed " << seed;
        EXPECT_EQ(statsFingerprint(sblock.stats),
                  statsFingerprint(plain.stats))
            << "seed " << seed;
        // Multi-stream phases keep the gate shut; the single-stream
        // prologue/epilogue may still engage, so only the off-mode
        // zero is asserted unconditionally.
        EXPECT_EQ(plain.stats.superblockCycles, 0u);
    }
}

/** The verification safety net holds with the tier on and off. */
TEST_F(SuperblockEquivalence, DifferentialAndInvariantsBothModes)
{
    for (bool use_sblock : {true, false}) {
        for (std::uint64_t seed : {7u, 19u}) {
            GenOptions opts;
            MultiStreamProgram msp = generateMultiStream(seed, opts);
            MachineConfig cfg;
            cfg.superblockExec = use_sblock;
            MachineRig rig(msp, cfg);
            InvariantChecker chk(rig.machine());
            rig.machine().setObserver(&chk);
            rig.start();
            rig.machine().run(rig.cycleBudget());
            EXPECT_TRUE(rig.machine().idle())
                << "seed " << seed << " sblock " << use_sblock;
            for (const std::string &d : compareWithReference(rig))
                ADD_FAILURE() << "seed " << seed << " sblock "
                              << use_sblock << ": " << d;
            EXPECT_TRUE(chk.ok()) << chk.report();
            rig.machine().setObserver(nullptr);
        }
    }
}

// ---- Translation-cache invalidation ----

/** Same discipline as SuperblockEquivalence (see above). */
class SuperblockCache : public ::testing::Test
{
    ScopedEnv sblocks_{"DISC_NO_SUPERBLOCK", "0"};
};

/** A single-stream loop the tier is guaranteed to engage on. */
Program
engagingLoop(unsigned k)
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

TEST_F(SuperblockCache, EngagementPopulatesTheCache)
{
    Program p = engagingLoop(1);
    Machine m;
    m.load(p);
    m.startStream(0, p.symbol("main"));
    m.run(10000, false);
    EXPECT_GT(m.stats().superblockCycles, 0u);
    EXPECT_GT(m.stats().superblockEnters, 0u);
    EXPECT_GT(m.superblocks().cachedBlocks(), 0u);
    EXPECT_TRUE(m.superblocks().cached(p.symbol("main")));
}

TEST_F(SuperblockCache, ProgramReloadDropsEveryBlock)
{
    Program first = engagingLoop(1);
    Program second = engagingLoop(7);
    Machine m;
    m.load(first);
    m.startStream(0, first.symbol("main"));
    m.run(10000, false);
    ASSERT_GT(m.superblocks().cachedBlocks(), 0u);

    // Reload: stale blocks translated from the first image must not
    // survive into the second. The reloaded machine must be
    // bit-identical to one that never ran the first program.
    m.load(second);
    EXPECT_EQ(m.superblocks().cachedBlocks(), 0u);
    m.startStream(0, second.symbol("main"));
    m.run(10000, false);

    Machine fresh;
    fresh.load(second);
    fresh.startStream(0, second.symbol("main"));
    fresh.run(10000, false);
    EXPECT_GT(m.stats().superblockCycles, 0u);
    EXPECT_EQ(m.saveState(), fresh.saveState());
}

TEST_F(SuperblockCache, ResetDropsEveryBlock)
{
    Program p = engagingLoop(3);
    Machine m;
    m.load(p);
    m.startStream(0, p.symbol("main"));
    m.run(10000, false);
    ASSERT_GT(m.superblocks().cachedBlocks(), 0u);
    m.reset();
    EXPECT_EQ(m.superblocks().cachedBlocks(), 0u);
}

TEST_F(SuperblockCache, CheckpointRestoreDropsEveryBlock)
{
    // The checkpoint carries no program image, so blocks translated
    // from the restoring machine's *previous* program would be stale
    // the moment the restore completes.
    Program a = engagingLoop(1);
    Program b = engagingLoop(9);

    Machine ma;
    ma.load(a);
    ma.startStream(0, a.symbol("main"));
    ma.run(5000, false);
    std::vector<std::uint8_t> snap = ma.saveState();

    Machine mb;
    mb.load(b);
    mb.startStream(0, b.symbol("main"));
    mb.run(3000, false);
    ASSERT_GT(mb.superblocks().cachedBlocks(), 0u);

    // Restore a's checkpoint into the machine that ran b, then load
    // a's image (the serve park/restore discipline). Continuing must
    // match the uninterrupted machine bit for bit, in both tiers.
    mb.restoreState(snap);
    EXPECT_EQ(mb.superblocks().cachedBlocks(), 0u);
    mb.load(a);
    mb.restoreState(snap);
    mb.run(5000, false);
    ma.run(5000, false);
    EXPECT_GT(ma.stats().superblockCycles, 0u);
    EXPECT_EQ(mb.saveState(), ma.saveState());
}

TEST_F(SuperblockCache, RestoredRunMatchesBothTiers)
{
    // checkpoint at N cycles, continue M in each tier: all four end
    // states (straight-through and restored, tier on and off) agree.
    Program p = engagingLoop(5);
    auto finish = [&](bool use_sblock, bool via_checkpoint) {
        Machine m;
        m.setSuperblockExec(use_sblock);
        m.load(p);
        m.startStream(0, p.symbol("main"));
        if (via_checkpoint) {
            m.run(4000, false);
            std::vector<std::uint8_t> snap = m.saveState();
            Machine r;
            r.setSuperblockExec(use_sblock);
            r.load(p);
            r.restoreState(snap);
            r.run(4000, false);
            return r.saveState();
        }
        m.run(8000, false);
        return m.saveState();
    };
    std::vector<std::uint8_t> want = finish(false, false);
    EXPECT_EQ(finish(false, true), want);
    EXPECT_EQ(finish(true, false), want);
    EXPECT_EQ(finish(true, true), want);
}

TEST_F(SuperblockCache, ServeParkRestoreStaysBitIdentical)
{
    // disc-serve eviction: two sessions, one resident slot, so every
    // acquire parks the other session and restores this one from its
    // park file. The offline control never parks; its digest must be
    // reproduced and its run must have used the superblock tier.
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() / "disc_sb_park_restore").string();
    fs::remove_all(dir);
    serve::SessionRegistry reg(dir, 1);
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
    for (int round = 0; round < 4; ++round) {
        for (const char *id : {"a", "b"}) {
            serve::SessionLease lease = reg.acquire(id);
            lease->machine().run(250, false);
        }
    }
    EXPECT_GT(reg.evictedTotal(), 0u);
    EXPECT_GT(reg.restoredTotal(), 0u);
    auto offline = [&](unsigned k) {
        serve::SessionSpec s = spec("x", k);
        Program prog = assemble(s.source);
        Machine m;
        m.load(prog);
        ExecTrace trace(serve::kSessionTraceEntries);
        m.setExecTrace(&trace);
        m.startStream(0, prog.symbol("main"));
        m.run(1000, false);
        EXPECT_GT(m.stats().superblockCycles, 0u);
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
}

// ---- Environment override ----

TEST(SuperblockExec, EnvironmentOverrideDisables)
{
    // Restores whatever the suite was launched with on scope exit.
    ScopedEnv restore("DISC_NO_SUPERBLOCK", "1");
    Machine off;
    EXPECT_FALSE(off.superblockExecEnabled());
    ::setenv("DISC_NO_SUPERBLOCK", "0", 1);
    Machine zero;
    EXPECT_TRUE(zero.superblockExecEnabled());
    ::unsetenv("DISC_NO_SUPERBLOCK");
    Machine on;
    EXPECT_TRUE(on.superblockExecEnabled());
    MachineConfig cfg;
    cfg.superblockExec = false;
    Machine cfg_off(cfg);
    EXPECT_FALSE(cfg_off.superblockExecEnabled());
}

} // namespace
} // namespace disc
