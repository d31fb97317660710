/**
 * @file
 * disc-fuzz: coverage-guided differential fuzzer for the DISC1
 * pipeline model.
 *
 * Each fuzz case is a (seed, options) pair fed to the multi-stream
 * workload generator; the resulting program runs on the pipelined
 * Machine under the invariant checker and is then compared, stream by
 * stream, against the sequential golden model. Cases with the batch
 * axis set additionally replay the same program without an observer,
 * so run() can enter hot chunks, and demand a checkpoint bit-identical
 * to the observed per-cycle run. Cases with the
 * board axis set (boardseed != 0) additionally compose a generated
 * board spec — a random selection of registry device types with random
 * parameters and interrupt wiring — plus a driver program that sweeps
 * the device windows, then demand that a fully accelerated run ends
 * checkpoint-identical to a plain scalar run of the same board and
 * that the checkpoint save/restore round-trips byte-exactly. Coverage
 * is the set of (opcode x pipeline event x active-stream-count) points
 * the run touched, plus one point per superblock bail reason, one per
 * hot-chunk exit reason, and one per board device type the case composed;
 * cases that reach new points join the corpus and later cases mutate
 * corpus entries instead of starting fresh.
 *
 * Usage:
 *   disc-fuzz [options]
 *     --seeds N         number of fuzz cases to run (default 100)
 *     --base-seed S     first seed value (default 1)
 *     --out DIR         where to write repro files (default ".")
 *     --max-cycles N    override the per-case cycle budget
 *     --defect NAME     seed a known machine defect; NAME is
 *                       "low-priority-vector"
 *     --expect-failure  exit 0 iff at least one failure was found
 *                       (for exercising the defect path in CI)
 *     --replay FILE     re-run one repro file and report the outcome
 *
 * On failure the case is shrunk — fewer streams, features dropped,
 * shorter body — while the failure persists, and the minimal repro is
 * written to DIR/repro-<seed>.txt as replayable key=value lines with
 * the failure and disassembly attached as comments.
 *
 * Exit status: 0 when no failures were found (or, under
 * --expect-failure, when one was); 1 otherwise. --replay exits 1 when
 * the failure reproduces.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "board/board.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "isa/assembler.hh"
#include "verify/differential.hh"
#include "verify/invariants.hh"

using namespace disc;

namespace
{

struct FuzzCase
{
    std::uint64_t seed = 1;
    GenOptions opts;
    bool defect = false;
    /** Run with the event-skip fast-forward enabled (coverage axis). */
    bool fastForward = true;
    /** Run with the superblock translation tier (coverage axis). */
    bool useSuperblock = true;
    /** Replay observer-free with hot chunks and diff (coverage axis). */
    bool useBatch = false;
    /** Board axis: when nonzero, also run a generated board case. */
    std::uint64_t boardSeed = 0;
    /** Enabled optional device slots of the generated board (4 bits). */
    unsigned boardMask = 0;
};

struct RunResult
{
    bool failed = false;
    std::string detail;
};

Cycle g_max_cycles = 0;

/** Fixed free-run horizon for board cases (independent of the per-case
 *  differential budget, so board repros don't depend on --max-cycles). */
constexpr Cycle kBoardBudget = 4000;

/** A generated board case: spec text plus the driver program. */
struct BoardCaseText
{
    std::string board;
    std::string driver;
};

/**
 * Generate a board spec and its driver program, both pure functions of
 * (boardSeed, boardMask). Slot 0 is always an extmem named d0 (it
 * anchors the address map and gives dma devices a target); mask bits
 * 0..3 enable four more slots whose types, parameters and interrupt
 * wiring are drawn from the seed. The driver installs a vector-table
 * entry and a counting handler for every interrupt line the board
 * uses, sweeps each device's register window with random reads and
 * writes, spins briefly so in-flight interrupts preempt live code,
 * and halts — device events keep arriving after the halt, so the run
 * also exercises interrupt wake-from-idle under the fixed horizon.
 */
BoardCaseText
generateBoardCase(std::uint64_t board_seed, unsigned board_mask)
{
    Rng rng(board_seed * 0x2545f4914f6cdd1dULL + 0xb0a2d);
    const std::vector<std::string> types =
        DeviceRegistry::builtin().types();

    std::ostringstream board;
    std::vector<IntRequest> irqs;
    std::set<unsigned> irq_keys;
    auto irqParam = [&](const char *key) {
        unsigned s = static_cast<unsigned>(rng.below(kNumStreams));
        unsigned b = 1 + static_cast<unsigned>(rng.below(6));
        if (irq_keys.insert(s * 8 + b).second)
            irqs.push_back({static_cast<StreamId>(s), b});
        return strprintf(" %s=%u:%u", key, s, b);
    };

    board << "# generated by disc-fuzz (boardseed=" << board_seed
          << " boardmask=" << board_mask << ")\n";
    board << "device extmem d0 base=0x2000 size=64 latency="
          << rng.below(4) << "\n";

    // (base, register-window span the driver may touch)
    std::vector<std::pair<Addr, unsigned>> windows{{0x2000, 48}};
    for (unsigned slot = 0; slot < 4; ++slot) {
        if (!(board_mask & (1u << slot)))
            continue;
        Addr base = static_cast<Addr>(0x2100 + slot * 0x100);
        const std::string &t = types[rng.below(types.size())];
        board << "device " << t << " d" << (slot + 1)
              << strprintf(" base=0x%04x", base);
        if (t == "extmem") {
            board << " size=32 latency=" << rng.below(4);
        } else if (t == "sensor") {
            board << " size=4 period=" << 3 + rng.below(40)
                  << " latency=" << rng.below(3);
            if (rng.chance(0.75))
                board << irqParam("irq");
        } else if (t == "actuator") {
            board << " size=4 latency=" << rng.below(3);
        } else if (t == "timer") {
            board << " size=4 period=" << 5 + rng.below(50)
                  << irqParam("irq");
        } else if (t == "uart") {
            board << " size=4 period=" << 4 + rng.below(30)
                  << " latency=" << rng.below(3) << " rx=";
            unsigned n = 1 + static_cast<unsigned>(rng.below(4));
            for (unsigned i = 0; i < n; ++i)
                board << (i ? "," : "") << rng.below(0x10000);
            if (rng.chance(0.75))
                board << irqParam("irq");
        } else if (t == "dma") {
            board << " size=8 target=d0 cpw=" << 1 + rng.below(3);
            if (rng.chance(0.75))
                board << irqParam("irq");
        } else if (t == "watchdog") {
            board << " size=4 timeout=" << 20 + rng.below(200)
                  << " grace=" << 5 + rng.below(40) << " latency="
                  << rng.below(3);
            if (rng.chance(0.75))
                board << irqParam("irq");
        } else if (t == "gpio") {
            board << " size=4 period=" << 4 + rng.below(40)
                  << " pattern=";
            unsigned n = 2 + static_cast<unsigned>(rng.below(5));
            for (unsigned i = 0; i < n; ++i)
                board << (i ? "," : "") << rng.below(4);
            static const char *const edges[] = {"rise", "fall", "any"};
            board << " edge=" << edges[rng.below(3)] << " latency="
                  << rng.below(3);
            if (rng.chance(0.75))
                board << irqParam("irq");
        } else if (t == "mailbox") {
            board << " size=4 depth=" << 1 + rng.below(4)
                  << " delay=" << 1 + rng.below(4) << " latency="
                  << rng.below(3);
            if (rng.chance(0.75))
                board << irqParam("irq");
        } else {
            fatal("board fuzz generator does not know type '%s'",
                  t.c_str());
        }
        board << "\n";
        windows.push_back({base, 4});
    }

    std::ostringstream drv;
    drv << "; disc-fuzz board driver (boardseed=" << board_seed
        << " boardmask=" << board_mask << ")\n";
    for (const IntRequest &q : irqs)
        drv << strprintf(".org %u\n    jmp h_%u_%u\n",
                         static_cast<unsigned>(q.stream) * 8 + q.bit,
                         static_cast<unsigned>(q.stream), q.bit);
    drv << ".org 0x40\nmain:\n";
    for (const auto &w : windows) {
        drv << strprintf("    ldi  g1, 0x%02x\n",
                         static_cast<unsigned>(w.first) & 0xff);
        drv << strprintf("    ldih g1, 0x%02x\n",
                         static_cast<unsigned>(w.first) >> 8);
        unsigned ops = 2 + static_cast<unsigned>(rng.below(5));
        for (unsigned i = 0; i < ops; ++i) {
            unsigned off = static_cast<unsigned>(rng.below(w.second));
            if (rng.chance(0.5)) {
                drv << strprintf("    ldi  r1, %u\n",
                                 static_cast<unsigned>(rng.below(0x100)));
                drv << strprintf("    st   r1, [g1+%u]\n", off);
            } else {
                drv << strprintf("    ld   r2, [g1+%u]\n", off);
            }
        }
    }
    drv << strprintf("    ldi  r3, %u\n",
                     8 + static_cast<unsigned>(rng.below(24)));
    drv << "spin:\n"
           "    addi r3, r3, -1\n"
           "    cmpi r3, 0\n"
           "    bne  spin\n"
           "    halt\n";
    unsigned idx = 0;
    for (const IntRequest &q : irqs) {
        drv << strprintf("h_%u_%u:\n",
                         static_cast<unsigned>(q.stream), q.bit);
        drv << strprintf("    ldmd r6, [0x%02x]\n", 0x60 + idx);
        drv << "    addi r6, r6, 1\n";
        drv << strprintf("    stmd r6, [0x%02x]\n", 0x60 + idx);
        drv << strprintf("    clri %u\n", q.bit);
        drv << "    reti\n";
        ++idx;
    }
    return {board.str(), drv.str()};
}

/**
 * Run a case's board axis: a per-cycle run of the generated board is
 * the baseline; a run through the case's acceleration flags (hot
 * chunks when the batch axis is set) must end checkpoint-identical,
 * and the baseline checkpoint must survive a save/restore round-trip
 * byte-exactly.
 */
RunResult
runBoardCase(const FuzzCase &c, CoverageMap *cov)
{
    BoardCaseText bc = generateBoardCase(c.boardSeed, c.boardMask);
    BoardSpec spec = parseBoardSpec(bc.board, "<fuzz-board>");
    if (cov) {
        for (const BoardDeviceSpec &d : spec.devices)
            cov->recordBoardDevice(
                DeviceRegistry::builtin().typeIndex(d.type));
    }
    Program prog = assemble(bc.driver);

    auto runOne = [&](const MachineConfig &mc) {
        Machine m(mc);
        Board board = buildBoard(spec);
        board.attachTo(m);
        m.load(prog);
        m.startStream(0, prog.symbol("main"));
        m.run(kBoardBudget, false);
        if (cov && mc.superblockExec) {
            const MachineStats &st = m.stats();
            for (unsigned b = 0; b < kNumSbBails; ++b)
                if (st.superblockBails[b] > 0)
                    cov->recordBail(static_cast<SbBail>(b));
        }
        return m.saveState();
    };

    MachineConfig scalar;
    scalar.fastForward = false;
    scalar.superblockExec = false;
    scalar.batchExec = false;
    std::vector<std::uint8_t> base = runOne(scalar);

    MachineConfig accel;
    accel.fastForward = c.fastForward;
    accel.superblockExec = c.useSuperblock;
    accel.batchExec = c.useBatch;
    std::vector<std::uint8_t> fast = runOne(accel);

    RunResult res;
    if (fast != base) {
        res.failed = true;
        res.detail += strprintf(
            "board case: accelerated run (ff=%d sb=%d batch=%d) "
            "diverged from scalar stepping (checkpoint mismatch)\n",
            c.fastForward ? 1 : 0, c.useSuperblock ? 1 : 0,
            c.useBatch ? 1 : 0);
    }

    // Save/restore round-trip through the checkpoint-v3 board header.
    Machine rm(scalar);
    Board rboard = buildBoard(spec);
    rboard.attachTo(rm);
    rm.load(prog);
    rm.restoreState(base);
    if (rm.saveState() != base) {
        res.failed = true;
        res.detail += "board case: checkpoint save/restore round-trip "
                      "is not byte-identical\n";
    }
    return res;
}

RunResult
runCase(const FuzzCase &c, CoverageMap *cov)
{
    MultiStreamProgram msp = generateMultiStream(c.seed, c.opts);
    MachineConfig cfg;
    cfg.fastForward = c.fastForward;
    cfg.superblockExec = c.useSuperblock;
    MachineRig rig(msp, cfg);
    if (c.defect)
        rig.machine().interrupts().setDefectLowPriorityVector(true);

    InvariantChecker chk(rig.machine());
    if (cov)
        chk.setCoverage(cov);
    rig.machine().setObserver(&chk);
    rig.start();
    rig.machine().run(g_max_cycles ? g_max_cycles : rig.cycleBudget());

    if (cov) {
        const MachineStats &st = rig.machine().stats();
        for (unsigned b = 0; b < kNumSbBails; ++b)
            if (st.superblockBails[b] > 0)
                cov->recordBail(static_cast<SbBail>(b));
    }

    DiffOutcome out;
    out.machineIdle = rig.machine().idle();
    out.divergences = compareWithReference(rig);

    RunResult res;
    res.failed = !out.ok() || !chk.ok();
    if (res.failed)
        res.detail = out.summary() + chk.report();

    if (c.useBatch) {
        // Replay without an observer so run() can enter hot chunks;
        // the replay's checkpoint must reproduce the observed run's
        // bit for bit.
        MachineRig brig(msp, cfg);
        if (c.defect)
            brig.machine().interrupts().setDefectLowPriorityVector(
                true);
        brig.start();
        brig.machine().run(g_max_cycles ? g_max_cycles
                                        : brig.cycleBudget());
        if (cov)
            cov->recordHotExits(brig.machine().stats());
        if (brig.machine().saveState() != rig.machine().saveState()) {
            res.failed = true;
            res.detail +=
                "hot-chunk execution diverged from per-cycle stepping "
                "(checkpoint mismatch)\n";
        }
    }

    if (c.boardSeed != 0) {
        RunResult br = runBoardCase(c, cov);
        if (br.failed) {
            res.failed = true;
            res.detail += br.detail;
        }
    }
    return res;
}

bool
stillFails(const FuzzCase &c)
{
    return runCase(c, nullptr).failed;
}

/** Body size of a case's program, excluding the vector table. */
std::size_t
caseInstructions(const FuzzCase &c)
{
    return generateMultiStream(c.seed, c.opts).program.code.size() -
           kVectorTableEnd;
}

/**
 * Greedy shrink: every reduction step regenerates the whole program
 * (cases are pure functions of seed+options) and is kept only while
 * the failure persists.
 */
FuzzCase
shrinkCase(FuzzCase c)
{
    if (c.boardSeed != 0) {
        // Prefer a repro without the board axis; when the failure
        // needs the board, drop optional device slots one at a time.
        FuzzCase t = c;
        t.boardSeed = 0;
        t.boardMask = 0;
        if (stillFails(t)) {
            c = t;
        } else {
            for (unsigned bit = 0; bit < 4; ++bit) {
                if (!(c.boardMask & (1u << bit)))
                    continue;
                FuzzCase t2 = c;
                t2.boardMask &= ~(1u << bit);
                if (stillFails(t2))
                    c = t2;
            }
        }
    }
    while (c.opts.streams > 1) {
        FuzzCase t = c;
        --t.opts.streams;
        if (!stillFails(t))
            break;
        c = t;
    }
    for (bool GenOptions::*feature :
         {&GenOptions::useDevices, &GenOptions::useInterrupts}) {
        if (c.opts.*feature) {
            FuzzCase t = c;
            t.opts.*feature = false;
            if (stillFails(t))
                c = t;
        }
    }
    if (c.useBatch) {
        // Prefer a repro that fails on the observed run alone, without
        // the hot-chunk replay.
        FuzzCase t = c;
        t.useBatch = false;
        if (stillFails(t))
            c = t;
    }
    if (c.fastForward) {
        // Prefer a repro that fails in plain per-cycle stepping too.
        FuzzCase t = c;
        t.fastForward = false;
        if (stillFails(t))
            c = t;
    }
    if (c.useSuperblock) {
        // Prefer a repro that fails in the plain per-cycle stage walk.
        FuzzCase t = c;
        t.useSuperblock = false;
        if (stillFails(t))
            c = t;
    }
    bool progress = true;
    while (progress && c.opts.length > 1) {
        progress = false;
        for (unsigned cand :
             {c.opts.length / 2, c.opts.length - 1}) {
            if (cand < 1 || cand >= c.opts.length)
                continue;
            FuzzCase t = c;
            t.opts.length = cand;
            if (stillFails(t)) {
                c = t;
                progress = true;
                break;
            }
        }
    }
    return c;
}

std::string
reproText(const FuzzCase &c, const std::string &detail)
{
    MultiStreamProgram msp = generateMultiStream(c.seed, c.opts);
    std::ostringstream out;
    out << "# disc-fuzz repro (replay with: disc-fuzz --replay FILE)\n";
    out << "seed=" << c.seed << "\n";
    out << "streams=" << c.opts.streams << "\n";
    out << "length=" << c.opts.length << "\n";
    out << "interrupts=" << (c.opts.useInterrupts ? 1 : 0) << "\n";
    out << "devices=" << (c.opts.useDevices ? 1 : 0) << "\n";
    out << "latency=" << c.opts.deviceLatency << "\n";
    out << "defect=" << (c.defect ? 1 : 0) << "\n";
    out << "fastforward=" << (c.fastForward ? 1 : 0) << "\n";
    out << "superblock=" << (c.useSuperblock ? 1 : 0) << "\n";
    out << "batch=" << (c.useBatch ? 1 : 0) << "\n";
    out << "boardseed=" << c.boardSeed << "\n";
    out << "boardmask=" << c.boardMask << "\n";
    out << "# instructions="
        << msp.program.code.size() - kVectorTableEnd << "\n";
    out << "# failure:\n";
    std::istringstream lines(detail);
    for (std::string line; std::getline(lines, line);)
        out << "#   " << line << "\n";
    if (c.boardSeed != 0) {
        BoardCaseText bc = generateBoardCase(c.boardSeed, c.boardMask);
        out << "# board spec:\n";
        std::istringstream blines(bc.board);
        for (std::string line; std::getline(blines, line);)
            out << "#   " << line << "\n";
        out << "# board driver:\n";
        std::istringstream dlines(bc.driver);
        for (std::string line; std::getline(dlines, line);)
            out << "#   " << line << "\n";
    }
    out << "# disassembly:\n";
    std::istringstream dis(disassemble(msp.program));
    for (std::string line; std::getline(dis, line);)
        out << "#   " << line << "\n";
    return out.str();
}

FuzzCase
parseRepro(const char *path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path);
    FuzzCase c;
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("bad repro line '%s'", line.c_str());
        std::string key = line.substr(0, eq);
        std::uint64_t val =
            std::strtoull(line.c_str() + eq + 1, nullptr, 0);
        if (key == "seed")
            c.seed = val;
        else if (key == "streams")
            c.opts.streams = static_cast<unsigned>(val);
        else if (key == "length")
            c.opts.length = static_cast<unsigned>(val);
        else if (key == "interrupts")
            c.opts.useInterrupts = val != 0;
        else if (key == "devices")
            c.opts.useDevices = val != 0;
        else if (key == "latency")
            c.opts.deviceLatency = static_cast<unsigned>(val);
        else if (key == "defect")
            c.defect = val != 0;
        else if (key == "fastforward")
            c.fastForward = val != 0;
        else if (key == "superblock")
            c.useSuperblock = val != 0;
        else if (key == "batch")
            c.useBatch = val != 0;
        else if (key == "boardseed")
            c.boardSeed = val;
        else if (key == "boardmask")
            c.boardMask = static_cast<unsigned>(val);
        else
            fatal("unknown repro key '%s'", key.c_str());
    }
    return c;
}

/** Derive deterministic option variation for a fresh seed. */
FuzzCase
freshCase(std::uint64_t seed, bool defect)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    FuzzCase c;
    c.seed = seed;
    c.defect = defect;
    c.opts.streams = 1 + static_cast<unsigned>(rng.below(kNumStreams));
    c.opts.length = 5 + static_cast<unsigned>(rng.below(200));
    c.opts.useInterrupts = !rng.chance(0.15);
    c.opts.useDevices = !rng.chance(0.15);
    c.opts.deviceLatency = static_cast<unsigned>(rng.below(7));
    c.fastForward = !rng.chance(0.25);
    c.useSuperblock = !rng.chance(0.25);
    c.useBatch = !rng.chance(0.25);
    if (rng.chance(0.25)) {
        c.boardSeed = rng.next64() | 1;
        c.boardMask = static_cast<unsigned>(rng.below(16));
    }
    return c;
}

/** Mutate a corpus entry: jitter one knob, keep the rest. */
FuzzCase
mutateCase(const FuzzCase &base, Rng &rng)
{
    FuzzCase c = base;
    switch (rng.below(9)) {
      case 0:
        c.seed = rng.next64();
        break;
      case 1:
        c.opts.streams =
            1 + static_cast<unsigned>(rng.below(kNumStreams));
        break;
      case 2:
        c.opts.length =
            1 + static_cast<unsigned>(rng.below(220));
        break;
      case 3:
        c.opts.deviceLatency = static_cast<unsigned>(rng.below(7));
        break;
      case 4:
        c.fastForward = !c.fastForward;
        break;
      case 5:
        c.useSuperblock = !c.useSuperblock;
        break;
      case 6:
        c.useBatch = !c.useBatch;
        break;
      case 7:
        if (c.boardSeed == 0) {
            c.boardSeed = rng.next64() | 1;
            c.boardMask = static_cast<unsigned>(rng.below(16));
        } else if (rng.chance(0.5)) {
            c.boardMask = static_cast<unsigned>(rng.below(16));
        } else {
            c.boardSeed = 0;
            c.boardMask = 0;
        }
        break;
      default:
        c.opts.useInterrupts = !c.opts.useInterrupts;
        break;
    }
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        unsigned seeds = 100;
        std::uint64_t base_seed = 1;
        const char *out_dir = ".";
        const char *replay = nullptr;
        bool defect = false;
        bool expect_failure = false;

        for (int i = 1; i < argc; ++i) {
            const char *a = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc)
                    fatal("option %s needs a value", a);
                return argv[++i];
            };
            if (!std::strcmp(a, "--seeds")) {
                seeds = static_cast<unsigned>(
                    std::strtoul(value(), nullptr, 0));
            } else if (!std::strcmp(a, "--base-seed")) {
                base_seed = std::strtoull(value(), nullptr, 0);
            } else if (!std::strcmp(a, "--out")) {
                out_dir = value();
            } else if (!std::strcmp(a, "--max-cycles")) {
                g_max_cycles = std::strtoull(value(), nullptr, 0);
            } else if (!std::strcmp(a, "--defect")) {
                const char *name = value();
                if (std::strcmp(name, "low-priority-vector"))
                    fatal("unknown defect '%s'", name);
                defect = true;
            } else if (!std::strcmp(a, "--expect-failure")) {
                expect_failure = true;
            } else if (!std::strcmp(a, "--replay")) {
                replay = value();
            } else {
                fatal("unknown option '%s'", a);
            }
        }

        if (replay) {
            FuzzCase c = parseRepro(replay);
            CoverageMap cov;
            RunResult res = runCase(c, &cov);
            if (res.failed) {
                std::printf("repro REPRODUCES:\n%s",
                            res.detail.c_str());
                return 1;
            }
            std::printf("repro does not reproduce (machine clean)\n");
            return 0;
        }

        CoverageMap coverage;
        std::vector<FuzzCase> corpus;
        unsigned failures = 0;
        Rng mut_rng(base_seed ^ 0xf0220edULL);

        for (unsigned i = 0; i < seeds; ++i) {
            FuzzCase c;
            // Once a corpus exists, alternate fresh seeds with
            // mutations of coverage-increasing ancestors.
            if (!corpus.empty() && i % 2) {
                c = mutateCase(
                    corpus[mut_rng.below(corpus.size())], mut_rng);
                c.defect = defect;
            } else {
                c = freshCase(base_seed + i, defect);
            }

            CoverageMap local;
            RunResult res = runCase(c, &local);
            if (coverage.countNew(local) > 0) {
                coverage.merge(local);
                corpus.push_back(c);
            }

            if (!res.failed)
                continue;
            ++failures;
            std::printf("case %u (seed %llu) FAILED:\n%s", i,
                        static_cast<unsigned long long>(c.seed),
                        res.detail.c_str());

            FuzzCase small = shrinkCase(c);
            RunResult small_res = runCase(small, nullptr);
            std::size_t insts = caseInstructions(small);
            std::printf("shrunk to %zu instructions "
                        "(streams=%u length=%u)\n",
                        insts, small.opts.streams, small.opts.length);
            if (insts <= 32)
                std::printf("shrink target met "
                            "(%zu <= 32 instructions)\n",
                            insts);

            std::filesystem::create_directories(out_dir);
            std::string path =
                std::string(out_dir) + "/repro-" +
                std::to_string(small.seed) + ".txt";
            std::ofstream out(path);
            if (!out)
                fatal("cannot write '%s'", path.c_str());
            out << reproText(small, small_res.detail);
            std::printf("wrote %s\n", path.c_str());
        }

        std::printf("FUZZ: %u cases, %u failures, coverage %zu/%zu "
                    "points, corpus %zu\n",
                    seeds, failures, coverage.pointsHit(),
                    coverage.pointsTotal(), corpus.size());
        if (expect_failure)
            return failures > 0 ? 0 : 1;
        return failures > 0 ? 1 : 0;
    } catch (const FatalError &) {
        return 1;
    }
}
