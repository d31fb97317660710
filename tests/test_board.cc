/**
 * @file
 * Board subsystem tests: the spec parser (accept, canonicalize,
 * reject), the nine-type device registry, construction equivalence
 * with the legacy attachDevice path, checkpoint v3 board embedding
 * (round trip, spec mismatch, v2 backward compatibility), dual-tier
 * Machine/Interp agreement on a board, serve park/restore digest
 * identity for board-backed sessions, cross-tier digest identity for
 * every scenario-zoo board, and unit semantics of the three devices
 * introduced with the subsystem (watchdog, gpio, mailbox).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/devices.hh"
#include "board/board.hh"
#include "board/registry.hh"
#include "common/logging.hh"
#include "isa/assembler.hh"
#include "serve/session.hh"
#include "sim/digest.hh"
#include "sim/interp.hh"
#include "sim/machine.hh"

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
    EXPECT_TRUE(in.good()) << "missing file " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A board spec exercising every builtin device type once. */
const char *kNineTypeSpec = R"(
# one of everything, declaration order = attach order
device extmem   ram  base=0x2000 size=128 latency=1
device sensor   temp base=0x2100 size=4 period=50 latency=1 irq=1:4
device actuator out  base=0x2200 size=4 latency=1
device timer    tick base=0x2300 size=4 period=80 irq=0:2
device uart     com0 base=0x2400 size=4 period=60 latency=1 rx=5,6,7 irq=1:3
device dma      dma0 base=0x2500 size=4 target=ram cpw=2 irq=0:3
device watchdog dog  base=0x2600 size=4 timeout=500 grace=100 irq=2:5
device gpio     pins base=0x2700 size=4 period=40 pattern=1,0,3 edge=any irq=3:4
device mailbox  mbox base=0x2800 size=8 depth=4 delay=2 irq=3:6
)";

/** A small driver that pokes several of the nine devices and spins. */
const char *kNineTypeDriver = R"(
    .org 2
        jmp tock
    .org 11
        jmp srv1
    .org 12
        jmp srv1
    .org 21
        jmp srv2
    .org 28
        jmp srv3
    .org 30
        jmp srv3
    .org 0x40
    main:
        ldi  g0, 0x00
        ldih g0, 0x20      ; extmem
        ldi  r1, 9
        st   r1, [g0]
        st   r1, [g0+1]
        ldi  g0, 0x00
        ldih g0, 0x28      ; mailbox push
        st   r1, [g0+1]
        st   r1, [g0+1]
    spin:
        ldmd r2, [0x90]
        addi r2, r2, 1
        stmd r2, [0x90]
        jmp  spin
    tock:
        clri 2
        reti
    srv1:
        ldmd r1, [0x91]
        addi r1, r1, 1
        stmd r1, [0x91]
        clri 3
        clri 4
        reti
    srv2:
        clri 5
        reti
    srv3:
        ldmd r1, [0x92]
        addi r1, r1, 1
        stmd r1, [0x92]
        clri 4
        clri 6
        reti
)";

/** Build a machine running @p driver on the board in @p spec_text. */
struct BoardRig
{
    explicit BoardRig(const std::string &spec_text,
                      const std::string &driver,
                      MachineConfig cfg = {})
        : machine(cfg),
          board(buildBoard(parseBoardSpec(spec_text, "<test>")))
    {
        prog = assemble(driver);
        board.attachTo(machine);
        machine.load(prog);
        machine.startStream(0, prog.symbol("main"));
        board.startStreams(machine, prog);
    }

    Machine machine;
    Board board;
    Program prog;
};

// ---- Parser ----------------------------------------------------------

TEST(BoardParser, AcceptsCommentsWhitespaceAndParams)
{
    BoardSpec spec = parseBoardSpec(R"(
        # comment
        ; also a comment
        device uart com0 base=0x2100 size=4 period=40 rx=7,8 irq=1:4

        device extmem ram base=0x2000 size=64 latency=2   # trailing
        start 2 worker
    )");
    ASSERT_EQ(spec.devices.size(), 2u);
    EXPECT_EQ(spec.devices[0].type, "uart");
    EXPECT_EQ(spec.devices[0].name, "com0");
    EXPECT_EQ(spec.devices[0].base, 0x2100);
    EXPECT_EQ(spec.devices[0].size, 4);
    EXPECT_EQ(spec.devices[0].params.at("rx"), "7,8");
    EXPECT_EQ(spec.devices[1].type, "extmem");
    EXPECT_EQ(spec.devices[1].params.at("latency"), "2");
    ASSERT_EQ(spec.starts.size(), 1u);
    EXPECT_EQ(spec.starts[0].stream, 2u);
    EXPECT_EQ(spec.starts[0].label, "worker");
}

TEST(BoardParser, CanonicalTextIsAFixedPoint)
{
    BoardSpec spec = parseBoardSpec(kNineTypeSpec);
    std::string canon = spec.canonicalText();
    BoardSpec again = parseBoardSpec(canon, "<canon>");
    EXPECT_EQ(again.canonicalText(), canon);
    EXPECT_EQ(again.devices.size(), spec.devices.size());
}

TEST(BoardParser, RejectsStructuralErrors)
{
    // Unknown device type.
    EXPECT_THROW(parseBoardSpec("device bogus x base=0x2000 size=4\n"),
                 FatalError);
    // Duplicate instance name.
    EXPECT_THROW(
        parseBoardSpec("device extmem a base=0x2000 size=4\n"
                       "device extmem a base=0x3000 size=4\n"),
        FatalError);
    // Zero size.
    EXPECT_THROW(parseBoardSpec("device extmem a base=0x2000 size=0\n"),
                 FatalError);
    // Address range wraps.
    EXPECT_THROW(parseBoardSpec("device extmem a base=0xfffe size=8\n"),
                 FatalError);
    // Overlapping ranges.
    EXPECT_THROW(
        parseBoardSpec("device extmem a base=0x2000 size=64\n"
                       "device extmem b base=0x2020 size=64\n"),
        FatalError);
    // Start on a stream that does not exist.
    EXPECT_THROW(parseBoardSpec("start 7 main\n"), FatalError);
    // Malformed device line (missing size).
    EXPECT_THROW(parseBoardSpec("device extmem a base=0x2000\n"),
                 FatalError);
    // Unknown directive.
    EXPECT_THROW(parseBoardSpec("attach extmem a\n"), FatalError);
}

TEST(BoardParser, FactoriesRejectBadParameters)
{
    // Unknown parameter key.
    EXPECT_THROW(
        buildBoard(parseBoardSpec(
            "device extmem a base=0x2000 size=4 wibble=1\n")),
        FatalError);
    // IRQ stream out of range.
    EXPECT_THROW(
        buildBoard(parseBoardSpec(
            "device timer t base=0x2000 size=4 period=10 irq=6:2\n")),
        FatalError);
    // IRQ bit out of range (only 1..7 vector).
    EXPECT_THROW(
        buildBoard(parseBoardSpec(
            "device timer t base=0x2000 size=4 period=10 irq=0:9\n")),
        FatalError);
    // Malformed IRQ.
    EXPECT_THROW(
        buildBoard(parseBoardSpec(
            "device timer t base=0x2000 size=4 period=10 irq=zap\n")),
        FatalError);
    // Timer requires an irq.
    EXPECT_THROW(
        buildBoard(parseBoardSpec(
            "device timer t base=0x2000 size=4 period=10\n")),
        FatalError);
    // DMA requires a target...
    EXPECT_THROW(
        buildBoard(
            parseBoardSpec("device dma d base=0x2000 size=4 cpw=1\n")),
        FatalError);
    // ...that names an extmem declared EARLIER.
    EXPECT_THROW(
        buildBoard(parseBoardSpec(
            "device dma d base=0x2000 size=4 target=ram\n"
            "device extmem ram base=0x3000 size=64\n")),
        FatalError);
    EXPECT_THROW(
        buildBoard(parseBoardSpec(
            "device sensor s base=0x3000 size=4 period=9\n"
            "device dma d base=0x2000 size=4 target=s\n")),
        FatalError);
}

// ---- Registry --------------------------------------------------------

TEST(BoardRegistry, BuiltinCoversNineTypes)
{
    const DeviceRegistry &reg = DeviceRegistry::builtin();
    EXPECT_EQ(reg.size(), kNumBoardDeviceTypes);
    std::vector<std::string> types = reg.types();
    ASSERT_EQ(types.size(), kNumBoardDeviceTypes);
    for (const char *t : {"actuator", "dma", "extmem", "gpio", "mailbox",
                          "sensor", "timer", "uart", "watchdog"})
        EXPECT_TRUE(reg.has(t)) << t;
    // types() is sorted and typeIndex() agrees with it.
    for (std::size_t i = 0; i < types.size(); ++i) {
        if (i > 0) {
            EXPECT_LT(types[i - 1], types[i]);
        }
        EXPECT_EQ(reg.typeIndex(types[i]), i);
    }
    EXPECT_THROW(reg.typeIndex("bogus"), FatalError);
}

TEST(BoardRegistry, NineTypeBoardsBuildBitIdenticalMachines)
{
    BoardRig a(kNineTypeSpec, kNineTypeDriver);
    BoardRig b(kNineTypeSpec, kNineTypeDriver);
    EXPECT_EQ(a.board.numDevices(), kNumBoardDeviceTypes);
    a.machine.run(3000, false);
    b.machine.run(3000, false);
    EXPECT_EQ(a.machine.saveState(), b.machine.saveState());
    // The run actually drove the board: timer ticks and deliveries.
    EXPECT_GT(a.machine.internalMemory().read(0x90), 0u);
    EXPECT_GT(a.machine.internalMemory().read(0x92), 0u);
}

// ---- Legacy construction equivalence ---------------------------------

TEST(BoardBuild, RegistryExtmemMatchesLegacyAttachByteForByte)
{
    const char *driver = R"(
        .org 0x40
        main:
            ldi  g0, 0x00
            ldih g0, 0x20
            ldi  r1, 3
            ldi  r2, 16
        fill:
            st   r1, [g0]
            addi g0, g0, 1
            addi r1, r1, 5
            addi r2, r2, -1
            cmpi r2, 0
            bne  fill
            halt
    )";
    Program prog = assemble(driver);

    Machine legacy;
    ExternalMemoryDevice dev(64, 2);
    legacy.attachDevice(0x2000, 64, &dev);
    legacy.load(prog);
    legacy.startStream(0, prog.symbol("main"));
    legacy.run(2000, false);

    BoardRig rig("device extmem d0 base=0x2000 size=64 latency=2\n",
                 driver);
    rig.machine.run(2000, false);

    // Same device timing, same contents...
    auto &bdev = rig.board.findAs<ExternalMemoryDevice>("d0");
    for (Addr a = 0; a < 20; ++a)
        EXPECT_EQ(dev.peek(a), bdev.peek(a)) << "word " << a;
    // ...and byte-identical checkpoints once the board identity
    // string (the only intentional difference) is aligned.
    legacy.setBoardSpec(rig.machine.boardSpec());
    EXPECT_EQ(legacy.saveState(), rig.machine.saveState());
}

// ---- Checkpoint v3 ---------------------------------------------------

TEST(BoardCheckpoint, V3RoundTripIsBitIdentical)
{
    BoardRig a(kNineTypeSpec, kNineTypeDriver);
    a.machine.run(2500, false);
    std::vector<std::uint8_t> snap = a.machine.saveState();

    BoardRig b(kNineTypeSpec, kNineTypeDriver);
    b.machine.restoreState(snap);
    EXPECT_EQ(b.machine.saveState(), snap);

    // And the restored machine continues identically.
    a.machine.run(500, false);
    b.machine.run(500, false);
    EXPECT_EQ(a.machine.saveState(), b.machine.saveState());
}

TEST(BoardCheckpoint, BoardSpecMismatchIsFatal)
{
    BoardRig a("device extmem d0 base=0x2000 size=64 latency=1\n",
               "    .org 0x40\nmain:\n    halt\n");
    std::vector<std::uint8_t> snap = a.machine.saveState();

    BoardRig b("device extmem d0 base=0x2000 size=32 latency=1\n",
               "    .org 0x40\nmain:\n    halt\n");
    EXPECT_THROW(b.machine.restoreState(snap), FatalError);
}

TEST(BoardCheckpoint, V2CheckpointsStillRestore)
{
    // A machine with no board: its v3 checkpoint carries an empty
    // spec string right after magic+version+pipeDepth. Splicing that
    // string out and rewriting the version yields exactly the bytes a
    // pre-board v2 build would have produced.
    Program prog = assemble("    .org 0x40\nmain:\n    ldi r1, 7\n"
                            "    stmd r1, [0x80]\n    halt\n");
    Machine m;
    m.load(prog);
    m.startStream(0, prog.symbol("main"));
    m.run(200, false);
    std::vector<std::uint8_t> v3 = m.saveState();

    std::vector<std::uint8_t> v2 = v3;
    ASSERT_GE(v2.size(), 12u);
    v2[4] = 2; // version u16, little-endian
    v2[5] = 0;
    // Empty board spec string = 4 zero length bytes at offset 8.
    ASSERT_EQ(v2[8] | v2[9] | v2[10] | v2[11], 0);
    v2.erase(v2.begin() + 8, v2.begin() + 12);

    Machine n;
    n.load(prog);
    n.restoreState(v2);
    EXPECT_EQ(n.internalMemory().read(0x80), 7u);
    EXPECT_EQ(n.saveState(), v3); // re-saves as v3, same state
}

// ---- Dual tier: Machine vs Interp ------------------------------------

TEST(BoardDualTier, MachineAndInterpAgreeOnAccessDrivenDevices)
{
    // The golden-model interpreter does not tick device events, so
    // this workload only uses access-driven behaviour: extmem
    // stores/loads and mailbox push/pop (delivery interrupts are
    // events, but the FIFO itself moves on bus accesses alone).
    const char *spec =
        "device extmem ram base=0x2000 size=64 latency=1\n"
        "device mailbox mbox base=0x2100 size=8 depth=8 delay=2\n";
    const char *driver = R"(
        .org 0x40
        main:
            ldi  g0, 0x00
            ldih g0, 0x20
            ldi  g1, 0x00
            ldih g1, 0x21
            ldi  r1, 5
            ldi  r2, 4
        put:
            st   r1, [g0]      ; ram[i] = value
            st   r1, [g1+1]    ; push the same word
            addi g0, g0, 1
            addi r1, r1, 3
            addi r2, r2, -1
            cmpi r2, 0
            bne  put
            ldi  r3, 0
            ldi  r2, 4
        take:
            ld   r1, [g1]      ; pop
            add  r3, r3, r1
            addi r2, r2, -1
            cmpi r2, 0
            bne  take
            stmd r3, [0x80]
            halt
    )";
    Program prog = assemble(driver);

    BoardRig rig(spec, driver);
    rig.machine.run(3000, false);
    ASSERT_TRUE(rig.machine.idle());

    Board golden = buildBoard(parseBoardSpec(spec, "<interp>"));
    Interp interp;
    golden.attachTo(interp);
    interp.load(prog);
    interp.reset(prog.symbol("main"));
    interp.run(2000);
    ASSERT_TRUE(interp.halted());

    // 5+8+11+14 = 38, in both tiers.
    EXPECT_EQ(rig.machine.internalMemory().read(0x80), 38u);
    EXPECT_EQ(interp.internalMemory().read(0x80), 38u);
    auto &mdev = rig.board.findAs<ExternalMemoryDevice>("ram");
    auto &idev = golden.findAs<ExternalMemoryDevice>("ram");
    for (Addr a = 0; a < 8; ++a)
        EXPECT_EQ(mdev.peek(a), idev.peek(a)) << "word " << a;
}

// ---- Serve: park/restore digest identity -----------------------------

TEST(BoardServe, ParkedBoardSessionRestoresBitIdentical)
{
    const char *board_text =
        "device sensor s0 base=0x2100 size=4 period=45 latency=1 "
        "irq=1:4\n"
        "device actuator a0 base=0x2200 size=4 latency=1\n";
    const char *source = R"(
        .org 12
            jmp isr
        .org 0x40
        main:
            ldi  g0, 0x00
            ldih g0, 0x22
        loop:
            ldmd r1, [0x80]
            addi r1, r1, 1
            st   r1, [g0]
            jmp  loop
        isr:
            ldi  g1, 0x00
            ldih g1, 0x21
            ld   r1, [g1]
            stmd r1, [0x80]
            clri 4
            reti
    )";

    auto offlineBoardDigest = [&](Cycle cycles) {
        Program prog = assemble(source);
        Machine m;
        Board b = buildBoard(parseBoardSpec(board_text, "<offline>"));
        b.attachTo(m);
        m.load(prog);
        ExecTrace trace(serve::kSessionTraceEntries);
        m.setExecTrace(&trace);
        m.startStream(0, prog.symbol("main"));
        b.startStreams(m, prog);
        m.run(cycles, false);
        return runDigest(m, trace);
    };

    std::string dir =
        (std::filesystem::temp_directory_path() / "disc_board_park")
            .string();
    std::filesystem::remove_all(dir);

    serve::SessionRegistry reg(dir, 1);
    serve::SessionSpec spec_a;
    spec_a.id = "board-a";
    spec_a.source = source;
    spec_a.board = board_text;
    reg.open(spec_a);
    serve::SessionSpec spec_b = spec_a;
    spec_b.id = "board-b";
    reg.open(spec_b);

    // max_resident=1: every switch parks one session and restores the
    // other, so each session crosses the park file repeatedly.
    for (unsigned round = 0; round < 4; ++round) {
        for (const char *id : {"board-a", "board-b"}) {
            serve::SessionLease lease = reg.acquire(id);
            lease->machine().run(250, false);
        }
    }
    EXPECT_GT(reg.evictedTotal(), 0u);
    EXPECT_GT(reg.restoredTotal(), 0u);
    for (const char *id : {"board-a", "board-b"}) {
        serve::SessionLease lease = reg.acquire(id);
        EXPECT_EQ(serve::sessionDigest(*lease), offlineBoardDigest(1000))
            << id;
    }
}

// ---- Scenario zoo: cross-tier digest identity ------------------------

struct ZooBoard
{
    const char *name;
    Cycle horizon;
};

// Without a printer gtest names each case by the raw bytes of its
// parameter, which hold the address of `name` and so change with every
// run of the binary; printing the scenario keeps the case names stable.
void
PrintTo(const ZooBoard &zb, std::ostream *os)
{
    *os << zb.name;
}

class ZooCrossTier : public ::testing::TestWithParam<ZooBoard>
{
};

TEST_P(ZooCrossTier, AllFourTiersBitIdentical)
{
    const ZooBoard &zb = GetParam();
    std::string dir =
        std::string(DISC_SOURCE_DIR) + "/examples/boards/";
    std::string spec_text = readFile(dir + zb.name + ".board");
    Program prog = assemble(readFile(dir + zb.name + ".s"));

    auto runTier = [&](MachineConfig cfg) {
        Machine m(cfg);
        Board b = buildBoard(parseBoardSpec(spec_text, zb.name));
        b.attachTo(m);
        m.load(prog);
        m.startStream(0, prog.symbol("main"));
        b.startStreams(m, prog);
        m.run(zb.horizon, false);
        return m.saveState();
    };

    MachineConfig full; // fast-forward + superblock + hot chunks
    MachineConfig nohot = full;
    nohot.batchExec = false;
    MachineConfig nosb = nohot;
    nosb.superblockExec = false;
    MachineConfig percycle = nosb; // per-cycle stage-walk reference
    percycle.fastForward = false;

    std::vector<std::uint8_t> ref = runTier(percycle);
    EXPECT_EQ(runTier(nosb), ref) << "fast-forward tier diverged";
    EXPECT_EQ(runTier(nohot), ref) << "superblock tier diverged";
    EXPECT_EQ(runTier(full), ref) << "hot-chunk tier diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooCrossTier,
    ::testing::Values(ZooBoard{"uart_echo", 4000},
                      ZooBoard{"watchdog_kick", 4000},
                      ZooBoard{"dma_scatter", 4000},
                      ZooBoard{"rtos_mailbox", 4000},
                      ZooBoard{"sensor_fusion", 4000},
                      ZooBoard{"engine_controller", 6000}),
    [](const ::testing::TestParamInfo<ZooBoard> &info) {
        return std::string(info.param.name);
    });

// ---- Watchdog unit ---------------------------------------------------

TEST(Watchdog, BitesAfterTimeoutThenResetsAfterGrace)
{
    WatchdogDevice dog(10, 5, 0);
    dog.setBiteInterrupt(1, 5);
    dog.setResetInterrupt(0, 6);

    EXPECT_EQ(dog.nextEventIn(), 10u);
    auto bite = dog.onEvent(10);
    ASSERT_TRUE(bite.has_value());
    EXPECT_EQ(bite->stream, 1);
    EXPECT_EQ(bite->bit, 5u);
    EXPECT_EQ(dog.bites(), 1u);
    EXPECT_EQ(dog.read(1), 1u); // in grace

    EXPECT_EQ(dog.nextEventIn(), 5u);
    auto reset = dog.onEvent(5);
    ASSERT_TRUE(reset.has_value());
    EXPECT_EQ(reset->stream, 0);
    EXPECT_EQ(reset->bit, 6u);
    EXPECT_EQ(dog.resets(), 1u);
    EXPECT_EQ(dog.read(1), 0u); // re-armed, watching again
    EXPECT_EQ(dog.read(2), 1u); // bites register
    EXPECT_EQ(dog.read(3), 1u); // resets register
}

TEST(Watchdog, KickRearmsBeforeAndDuringGrace)
{
    WatchdogDevice dog(10, 5, 0);
    dog.setBiteInterrupt(0, 5);

    // Kick at half time: no bite at the original deadline.
    EXPECT_FALSE(dog.onEvent(5).has_value());
    dog.write(0, 1);
    EXPECT_EQ(dog.nextEventIn(), 10u);
    EXPECT_FALSE(dog.onEvent(9).has_value());
    auto bite = dog.onEvent(1);
    ASSERT_TRUE(bite.has_value());
    EXPECT_EQ(dog.read(1), 1u);

    // A kick during grace cancels the pending reset.
    dog.write(0, 1);
    EXPECT_EQ(dog.read(1), 0u);
    EXPECT_EQ(dog.nextEventIn(), 10u);
    EXPECT_EQ(dog.resets(), 0u);
}

// ---- GPIO unit -------------------------------------------------------

TEST(Gpio, RisingEdgesLatchAndReadClears)
{
    GpioDevice gpio(5, {1, 0, 1}, GpioDevice::Edge::Rise, 0);
    gpio.setEdgeInterrupt(2, 3);

    EXPECT_EQ(gpio.nextEventIn(), 5u);
    auto e1 = gpio.onEvent(5); // 0 -> 1: rise
    ASSERT_TRUE(e1.has_value());
    EXPECT_EQ(e1->stream, 2);
    EXPECT_EQ(e1->bit, 3u);
    EXPECT_EQ(gpio.read(0), 1u); // input word
    EXPECT_EQ(gpio.read(2), 1u); // pending bit 0...
    EXPECT_EQ(gpio.read(2), 0u); // ...cleared by the read

    EXPECT_FALSE(gpio.onEvent(5).has_value()); // 1 -> 0: no rise
    EXPECT_TRUE(gpio.onEvent(5).has_value());  // 0 -> 1: rise
    EXPECT_EQ(gpio.steps(), 3u);
    EXPECT_EQ(gpio.read(3), 3u); // steps register
}

TEST(Gpio, FallAndAnySenses)
{
    GpioDevice fall(4, {3, 1}, GpioDevice::Edge::Fall, 0);
    fall.setEdgeInterrupt(0, 2);
    EXPECT_FALSE(fall.onEvent(4).has_value()); // 0 -> 3: rises only
    auto f = fall.onEvent(4);                  // 3 -> 1: bit 1 falls
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(fall.read(2), 2u);

    GpioDevice any(4, {2, 1}, GpioDevice::Edge::Any, 0);
    any.setEdgeInterrupt(0, 2);
    EXPECT_TRUE(any.onEvent(4).has_value()); // 0 -> 2
    EXPECT_TRUE(any.onEvent(4).has_value()); // 2 -> 1: both change
    EXPECT_EQ(any.read(2), 3u);
}

TEST(Gpio, OutputLatchReadsBack)
{
    GpioDevice gpio(4, {0}, GpioDevice::Edge::Rise, 0);
    gpio.write(1, 0xa5);
    EXPECT_EQ(gpio.read(1), 0xa5u);
    EXPECT_EQ(gpio.outputLatch(), 0xa5u);
}

// ---- Mailbox unit ----------------------------------------------------

TEST(Mailbox, FifoOrderOccupancyAndOverflow)
{
    MailboxDevice mbox(2, 1, 0);
    EXPECT_EQ(mbox.read(0), 0u); // pop when empty
    mbox.write(1, 10);
    mbox.write(1, 20);
    mbox.write(1, 30); // full: dropped
    EXPECT_EQ(mbox.occupancy(), 2u);
    EXPECT_EQ(mbox.overflows(), 1u);
    EXPECT_EQ(mbox.read(2), 2u);          // occupancy register
    EXPECT_EQ(mbox.read(3) & 3u, 3u);     // non-empty | full
    EXPECT_EQ(mbox.read(4), 1u);          // overflows register
    EXPECT_EQ(mbox.read(0), 10u);
    EXPECT_EQ(mbox.read(0), 20u);
    EXPECT_EQ(mbox.read(0), 0u);
    EXPECT_EQ(mbox.read(3), 0u);
}

TEST(Mailbox, DeliversOneInterruptPerPostAfterDelay)
{
    MailboxDevice mbox(8, 3, 0);
    mbox.setDeliveryInterrupt(3, 4);
    mbox.write(1, 7);
    mbox.write(1, 8);

    Cycle in = mbox.nextEventIn();
    ASSERT_LE(in, 3u);
    unsigned delivered = 0;
    for (unsigned guard = 0; guard < 16; ++guard) {
        Cycle n = mbox.nextEventIn();
        if (n == kNoDeviceEvent || n == 0)
            break;
        if (auto req = mbox.onEvent(n)) {
            EXPECT_EQ(req->stream, 3);
            EXPECT_EQ(req->bit, 4u);
            ++delivered;
        }
        if (delivered == 2)
            break;
    }
    EXPECT_EQ(delivered, 2u);
    EXPECT_EQ(mbox.occupancy(), 2u); // delivery does not consume
}

} // namespace
} // namespace disc
