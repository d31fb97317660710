/**
 * @file
 * disc-run: assemble and execute a DISC1 assembly file from the
 * command line.
 *
 * Usage:
 *   disc-run FILE.s [options]
 *     --entry LABEL        start stream 0 at LABEL (default: "main",
 *                          falling back to address 0)
 *     --stream S:LABEL     also start stream S at LABEL (repeatable)
 *     --cycles N           cycle budget (default 1000000)
 *     --free-run           do not stop when the machine goes idle
 *     --board FILE         compose devices from a board spec file
 *                          (docs/BOARDS.md); `start` lines launch
 *                          extra streams
 *     --extmem BASE:SIZE:LAT  attach an external memory device
 *                          (sugar for a board `device extmem` line)
 *     --trace              print the retired-instruction trace
 *     --pipe               print the last 32 cycles of pipe occupancy
 *     --list               print the disassembly listing and exit
 *     --vcd FILE           write a VCD waveform of machine activity
 *     --dump ADDR[:N]      dump N internal-memory words (default 8)
 *     --digest             print the run digest (checkpoint + trace
 *                          fingerprint; comparable with disc-serve)
 *     --no-superblock      disable the superblock execution tier
 *                          (per-cycle path only; same effect as
 *                          DISC_NO_SUPERBLOCK=1)
 *
 * Exit status: 0 on success, 1 on assembly/usage errors.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "arch/devices.hh"
#include "board/board.hh"
#include "common/logging.hh"
#include "isa/assembler.hh"
#include "sim/digest.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "sim/vcd.hh"

using namespace disc;

namespace
{

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct StreamStart
{
    StreamId stream;
    std::string label;
};

struct ExtMemSpec
{
    Addr base;
    Addr size;
    unsigned latency;
};

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            fatal("usage: disc-run FILE.s [options]");
        const char *path = argv[1];
        std::string entry = "main";
        std::vector<StreamStart> extra;
        std::vector<ExtMemSpec> extmems;
        const char *board_path = nullptr;
        Cycle budget = 1000000;
        bool free_run = false;
        bool want_trace = false, want_pipe = false, want_list = false;
        bool want_digest = false;
        bool no_superblock = false;
        const char *vcd_path = nullptr;
        std::vector<std::pair<Addr, unsigned>> dumps;

        for (int i = 2; i < argc; ++i) {
            const char *a = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc)
                    fatal("option %s needs a value", a);
                return argv[++i];
            };
            if (!std::strcmp(a, "--entry")) {
                entry = value();
            } else if (!std::strcmp(a, "--stream")) {
                const char *v = value();
                const char *colon = std::strchr(v, ':');
                if (!colon)
                    fatal("--stream wants S:LABEL");
                extra.push_back(
                    {static_cast<StreamId>(std::atoi(v)), colon + 1});
            } else if (!std::strcmp(a, "--cycles")) {
                budget = std::strtoull(value(), nullptr, 0);
            } else if (!std::strcmp(a, "--free-run")) {
                free_run = true;
            } else if (!std::strcmp(a, "--board")) {
                board_path = value();
            } else if (!std::strcmp(a, "--extmem")) {
                const char *v = value();
                unsigned base, size, lat;
                if (std::sscanf(v, "%i:%i:%i", &base, &size, &lat) != 3)
                    fatal("--extmem wants BASE:SIZE:LAT");
                extmems.push_back({static_cast<Addr>(base),
                                   static_cast<Addr>(size), lat});
            } else if (!std::strcmp(a, "--trace")) {
                want_trace = true;
            } else if (!std::strcmp(a, "--digest")) {
                want_digest = true;
            } else if (!std::strcmp(a, "--no-superblock")) {
                no_superblock = true;
            } else if (!std::strcmp(a, "--pipe")) {
                want_pipe = true;
            } else if (!std::strcmp(a, "--list")) {
                want_list = true;
            } else if (!std::strcmp(a, "--vcd")) {
                vcd_path = value();
            } else if (!std::strcmp(a, "--dump")) {
                const char *v = value();
                unsigned addr, n = 8;
                if (std::sscanf(v, "%i:%i", &addr, &n) < 1)
                    fatal("--dump wants ADDR[:N]");
                dumps.emplace_back(static_cast<Addr>(addr), n);
            } else {
                fatal("unknown option '%s'", a);
            }
        }

        Program prog = assemble(readFile(path));
        if (want_list) {
            std::fputs(disassemble(prog).c_str(), stdout);
            return 0;
        }

        Machine m;
        // One construction path: the board file plus the --extmem
        // sugar lines feed the board parser/registry (disc-serve
        // composes open requests the same way, so digests line up).
        std::string board_text =
            board_path ? readFile(board_path) : std::string();
        for (std::size_t i = 0; i < extmems.size(); ++i)
            board_text += extmemSugarLine(static_cast<unsigned>(i),
                                          extmems[i].base,
                                          extmems[i].size,
                                          extmems[i].latency);
        Board board = buildBoard(parseBoardSpec(
            board_text, board_path ? board_path : "<args>"));
        board.attachTo(m);
        m.load(prog);
        if (no_superblock)
            m.setSuperblockExec(false);

        ExecTrace etrace(65536);
        PipeTrace ptrace(m.pipeDepth(), 32);
        // The digest folds in the trace text, so --digest records the
        // trace too (disc-serve sessions always trace).
        if (want_trace || want_digest)
            m.setExecTrace(&etrace);
        if (want_pipe)
            m.setTrace(&ptrace);

        PAddr entry_addr =
            prog.hasSymbol(entry) ? prog.symbol(entry) : 0;
        m.startStream(0, entry_addr);
        board.startStreams(m, prog);
        for (const StreamStart &s : extra)
            m.startStream(s.stream, prog.symbol(s.label));

        Cycle ran;
        auto wall_start = std::chrono::steady_clock::now();
        if (vcd_path) {
            VcdWriter vcd;
            for (ran = 0; ran < budget; ++ran) {
                if (!free_run && m.idle())
                    break;
                m.step();
                vcd.sample(m);
            }
            std::ofstream out(vcd_path);
            if (!out)
                fatal("cannot write '%s'", vcd_path);
            out << vcd.text();
            std::printf("wrote %s (%llu samples)\n", vcd_path,
                        static_cast<unsigned long long>(vcd.samples()));
        } else {
            ran = m.run(budget, !free_run);
        }
        double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              wall_start)
                              .count();

        const MachineStats &st = m.stats();
        // Simulated MIPS: retired instructions per wall-clock second.
        double mips = wall_sec > 0 ? static_cast<double>(st.totalRetired) /
                                         wall_sec / 1e6
                                   : 0;
        std::printf("cycles=%llu idle=%s retired=%llu util=%.3f "
                    "redirects=%llu bubbles=%llu fastforwarded=%llu "
                    "mips=%.2f\n",
                    static_cast<unsigned long long>(ran),
                    m.idle() ? "yes" : "no",
                    static_cast<unsigned long long>(st.totalRetired),
                    st.utilization(),
                    static_cast<unsigned long long>(st.redirects),
                    static_cast<unsigned long long>(st.bubbles),
                    static_cast<unsigned long long>(
                        st.fastForwardedCycles),
                    mips);
        if (st.superblockEnters > 0) {
            std::printf("  superblock: cycles=%llu enters=%llu bails=[",
                        static_cast<unsigned long long>(
                            st.superblockCycles),
                        static_cast<unsigned long long>(
                            st.superblockEnters));
            for (unsigned b = 0; b < kNumSbBails; ++b)
                std::printf("%s%s=%llu", b ? " " : "",
                            sbBailName(static_cast<SbBail>(b)),
                            static_cast<unsigned long long>(
                                st.superblockBails[b]));
            std::printf("]\n");
        }
        std::uint64_t chunks = 0;
        for (std::uint64_t e : st.hotExits)
            chunks += e;
        if (chunks > 0) {
            std::printf("  hot chunks: cycles=%llu exits=[",
                        static_cast<unsigned long long>(st.hotCycles));
            for (unsigned e = 0; e < kNumHotExits; ++e)
                std::printf("%s%s=%llu", e ? " " : "",
                            hotExitName(static_cast<HotExit>(e)),
                            static_cast<unsigned long long>(
                                st.hotExits[e]));
            std::printf("]\n");
        }
        for (StreamId s = 0; s < kNumStreams; ++s) {
            if (st.retired[s] == 0)
                continue;
            // Per-stream cycle breakdown: ready to issue, parked on
            // the external bus, or inactive (the three tallies sum to
            // the cycle count).
            std::printf("  is%u: retired=%llu pc=0x%04x ready=%llu "
                        "wait-abi=%llu inactive=%llu\n",
                        s + 1,
                        static_cast<unsigned long long>(st.retired[s]),
                        m.pc(s),
                        static_cast<unsigned long long>(st.readyCycles[s]),
                        static_cast<unsigned long long>(
                            st.waitAbiCycles[s]),
                        static_cast<unsigned long long>(
                            st.inactiveCycles[s]));
        }
        for (auto [addr, n] : dumps) {
            std::printf("mem[0x%03x]:", addr);
            for (unsigned k = 0; k < n; ++k)
                std::printf(" %04x",
                            m.internalMemory().read(
                                static_cast<Addr>(addr + k)));
            std::printf("\n");
        }
        if (want_digest)
            std::printf("digest=%016llx\n",
                        static_cast<unsigned long long>(
                            runDigest(m, etrace)));
        if (want_trace)
            std::fputs(etrace.render().c_str(), stdout);
        if (want_pipe)
            std::fputs(ptrace.render().c_str(), stdout);
        return 0;
    } catch (const FatalError &) {
        return 1;
    }
}
