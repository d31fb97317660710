/**
 * @file
 * Workload `machine`: one thread drives fresh Machines through
 * Machine::run() — the path disc-run, the fuzzer, the zoo and serve
 * sessions all take — over five kernels, each for a fixed
 * simulated-cycle budget.
 *
 * Why these kernels: each execution tier of src/sim dominates one of
 * them and is nearly absent from the others (superblocks on
 * single_stream; the per-cycle uop walk on four_stream and bus;
 * fast-forward on io_bound; device events, interrupts and tier
 * switching on zoo), so a tier change shows on its own kernel and
 * predicts no change on the rest. Nothing from stochastic or serve
 * runs.
 *
 * One operation is a pass: every scenario built fresh (Machine
 * construction, Machine::load, device or board composition) and run
 * for its budget. Each machine's runDigest is checked against a
 * reference run of the same inputs on the per-cycle path (superblocks
 * and fast-forward off), made once before timing.
 */

#include <memory>

#include "arch/devices.hh"
#include "bench.hh"
#include "board/board.hh"
#include "common/random.hh"
#include "isa/assembler.hh"
#include "sim/digest.hh"
#include "sim/machine.hh"

using namespace disc;

namespace perfbench
{

namespace
{

const char *const kZooBoards[] = {"uart_echo",     "watchdog_kick",
                                  "dma_scatter",   "rtos_mailbox",
                                  "sensor_fusion", "engine_controller"};

/** One machine of one kernel, with its generated inputs. */
struct Scenario
{
    std::string kernel;
    std::string label;
    std::string source;
    std::string boardText; ///< zoo: the example board spec
    std::vector<std::pair<Addr, unsigned>> extmems; ///< (base, latency)
    unsigned streams = 1;  ///< streams started at `entry` (non-zoo)
    std::vector<std::pair<unsigned, Word>> globals; ///< set via stream 0
    Cycle budget = 0;

    Program prog;
    std::uint64_t reference = 0;
};

/** A machine built from a scenario; the machine dies first. */
struct Built
{
    Board board;
    std::vector<std::unique_ptr<ExternalMemoryDevice>> devices;
    std::unique_ptr<Machine> m;
};

/**
 * Digest of the machine's full architectural state and statistics.
 * Kernels run without an execution trace, as disc-run does by default
 * (a trace's allocation churn also made run times swing by +-20%
 * between otherwise identical machines), so the trace part is empty.
 */
std::uint64_t
stateDigest(const Machine &m)
{
    ExecTrace none(1);
    return runDigest(m, none);
}

std::string
computeLoop(Rng &rng)
{
    return strprintf(".org 0x20\n"
                     "entry:\n"
                     "    ldi r1, %d\n"
                     "    ldi r2, %d\n"
                     "    add r3, r1, r2\n"
                     "    add r4, r3, r2\n"
                     "    sub r5, r4, r1\n"
                     "    jmp entry\n",
                     static_cast<int>(1 + rng.below(2000)),
                     static_cast<int>(1 + rng.below(2000)));
}

std::string
busLoop(Rng &rng, bool per_stream_device)
{
    std::string prologue =
        per_stream_device
            ? "    mov  r7, sr\n"
              "    shr  r7, r7, g2   ; g2 = 4: stream id from SR[5:4]\n"
              "    andi r7, r7, 3\n"
              "    ldi  g0, 0x00\n"
              "    ldih g0, 0x10     ; 0x1000 + 0x100 * stream id\n"
              "    shl  r6, r7, g3   ; g3 = 8\n"
              "    add  g0, g0, r6\n"
            : "    ldi  g0, 0x00\n"
              "    ldih g0, 0x10\n";
    return ".org 0x20\nentry:\n" + prologue +
           strprintf("loop:\n"
                     "    ld   r1, [g0]\n"
                     "    addi r2, r2, %d\n"
                     "    st   r2, [g0+1]\n"
                     "    jmp  loop\n",
                     static_cast<int>(1 + rng.below(100)));
}

/** Generate every scenario's inputs from the seed. */
std::vector<Scenario>
makeScenarios(const Options &opt)
{
    Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x6d616368ULL);
    std::vector<Scenario> v;

    Scenario single;
    single.kernel = single.label = "single_stream";
    single.source = computeLoop(rng);
    single.budget = 4000000;
    v.push_back(single);

    Scenario four;
    four.kernel = four.label = "four_stream";
    four.source = computeLoop(rng);
    four.streams = kNumStreams;
    four.budget = 1000000;
    v.push_back(four);

    Scenario bus;
    bus.kernel = bus.label = "bus";
    bus.source = busLoop(rng, false);
    bus.streams = kNumStreams;
    bus.extmems = {{0x1000, 5}};
    bus.budget = 1000000;
    v.push_back(bus);

    Scenario io;
    io.kernel = io.label = "io_bound";
    io.source = busLoop(rng, true);
    io.streams = kNumStreams;
    for (unsigned s = 0; s < kNumStreams; ++s)
        io.extmems.emplace_back(0x1000 + s * 0x100,
                                99 + static_cast<unsigned>(rng.below(3)));
    io.globals = {{reg::G2, 4}, {reg::G3, 8}};
    io.budget = 8000000;
    v.push_back(io);

    for (const char *b : kZooBoards) {
        Scenario z;
        z.kernel = "zoo";
        z.label = b;
        std::string base = opt.repoRoot + "/examples/boards/" + b;
        z.source = readText(base + ".s");
        z.boardText = readText(base + ".board");
        z.budget = 500000;
        v.push_back(z);
    }
    return v;
}

void
assembleAll(std::vector<Scenario> &sc, Tracer &tr)
{
    for (Scenario &s : sc) {
        Scope sp(&tr, "isa.assemble");
        s.prog = assemble(s.source);
    }
}

/** Construct, compose, load and start one scenario's machine. */
std::unique_ptr<Built>
build(const Scenario &s, Tracer &tr)
{
    auto b = std::make_unique<Built>();
    b->m = std::make_unique<Machine>();
    Machine &m = *b->m;
    if (!s.boardText.empty()) {
        Scope sp(&tr, "board.compose");
        b->board = buildBoard(parseBoardSpec(s.boardText, s.label));
        b->board.attachTo(m);
    }
    if (!s.extmems.empty()) {
        Scope sp(&tr, "arch.devices");
        for (const auto &[base, latency] : s.extmems) {
            b->devices.push_back(
                std::make_unique<ExternalMemoryDevice>(64, latency));
            m.attachDevice(base, 64, b->devices.back().get());
        }
    }
    {
        Scope sp(&tr, "isa.load");
        m.load(s.prog);
    }
    if (!s.boardText.empty()) {
        m.startStream(0, s.prog.hasSymbol("main") ? s.prog.symbol("main")
                                                  : 0);
        b->board.startStreams(m, s.prog);
    } else {
        for (const auto &[r, value] : s.globals)
            m.writeReg(0, r, value);
        for (StreamId st = 0; st < s.streams; ++st)
            m.startStream(st, s.prog.symbol("entry"));
    }
    return b;
}

/** Per-kernel totals of one pass. */
struct KernelPass
{
    double cpu = 0; ///< thread CPU seconds inside run()
    Cycle cycles = 0;
    MachineStats stats; ///< summed diagnostic counters
};

void
addStats(MachineStats &a, const MachineStats &b)
{
    a.cycles += b.cycles;
    a.totalRetired += b.totalRetired;
    a.externalReads += b.externalReads;
    a.externalWrites += b.externalWrites;
    a.busBusyRejections += b.busBusyRejections;
    a.vectorsTaken += b.vectorsTaken;
    a.fastForwardedCycles += b.fastForwardedCycles;
    a.fastForwards += b.fastForwards;
    a.superblockCycles += b.superblockCycles;
    a.superblockEnters += b.superblockEnters;
    for (unsigned i = 0; i < kNumSbBails; ++i)
        a.superblockBails[i] += b.superblockBails[i];
}

struct Pass
{
    double wall = 0; ///< build + run, seconds
    double cpu = 0;  ///< run() thread CPU, seconds
    Cycle cycles = 0;
    std::map<std::string, KernelPass> kernels;
};

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

} // namespace

void
runMachineWorkload(const Options &opt, Tracer &tr, Outcome &out)
{
    std::vector<Scenario> sc = makeScenarios(opt);

    // Set-up, several times: assemble every kernel and build (load,
    // compose) its first machine. The median is setup_s.
    std::vector<double> setups, probes;
    for (int rep = 0; rep < 15; ++rep) {
        probes.push_back(hostProbeSeconds());
        Clock::time_point t0 = Clock::now();
        assembleAll(sc, tr);
        std::vector<std::unique_ptr<Built>> first;
        for (const Scenario &s : sc)
            first.push_back(build(s, tr));
        setups.push_back(secondsSince(t0));
    }

    // Reference digests on the per-cycle path (untimed).
    tr.setEnabled(false);
    for (Scenario &s : sc) {
        std::unique_ptr<Built> b = build(s, tr);
        b->m->setSuperblockExec(false);
        b->m->setFastForward(false);
        b->m->run(s.budget, false);
        s.reference = stateDigest(*b->m);
        if (opt.corruptReference)
            s.reference ^= 1;
    }

    auto onePass = [&](bool traced) {
        tr.setEnabled(traced);
        Pass p;
        Scope root(&tr, "bench.pass");
        for (const Scenario &s : sc) {
            if (!traced)
                probes.push_back(hostProbeSeconds());
            Clock::time_point t0 = Clock::now();
            std::unique_ptr<Built> b = build(s, tr);
            double cpu0 = threadCpuSeconds();
            {
                Scope sp(&tr, "sim.run");
                b->m->run(s.budget, false);
            }
            double cpu = threadCpuSeconds() - cpu0;
            p.wall += secondsSince(t0);
            p.cpu += cpu;
            p.cycles += b->m->stats().cycles;
            KernelPass &k = p.kernels[s.kernel];
            k.cpu += cpu;
            k.cycles += b->m->stats().cycles;
            addStats(k.stats, b->m->stats());
            ++out.attempted;
            if (stateDigest(*b->m) != s.reference)
                ++out.failed;
        }
        return p;
    };

    onePass(false); // warm-up
    std::vector<Pass> plain, traced;
    Clock::time_point start = Clock::now();
    while (secondsSince(start) < opt.seconds || plain.size() < 3 ||
           (opt.trace && traced.size() < 3)) {
        plain.push_back(onePass(false));
        // The traced run alternates traced and untraced passes, so
        // tracing overhead is measured on the same host moment.
        if (opt.trace)
            traced.push_back(onePass(true));
    }
    tr.setEnabled(opt.trace);

    // Times are scaled to the reference host speed (see bench.hh).
    const double speed = kProbeNominalSeconds / median(probes);
    std::vector<double> mcps, wall_ms, twall_ms;
    for (const Pass &p : plain) {
        mcps.push_back(ratio(static_cast<double>(p.cycles), p.cpu) / 1e6 /
                       speed);
        wall_ms.push_back(p.wall * 1e3 * speed);
    }
    for (const Pass &p : traced)
        twall_ms.push_back(p.wall * 1e3 * speed);
    out.e2e.set("setup_s", median(setups) * speed, "s");
    out.e2e.set("peak_rss_mb", peakRssMb(), "MB");
    out.e2e.set("sim_mcps", median(mcps), "Mcycles/s");
    out.e2e.set("op_p50_ms", median(wall_ms), "ms");
    if (!opt.trace)
        return;
    out.layer.set("host.probe_ms", median(probes) * 1e3, "ms");

    // Per-layer numbers, from the traced passes only.
    MetricTable &L = out.layer;
    const std::vector<Span> all = tr.spans();
    const std::vector<Span> spans = subtree(all, "bench.pass");
    const double n_traced = static_cast<double>(traced.size());
    auto total = [](const std::vector<Span> &v, const char *name) {
        double sum = 0;
        for (double d : durations(v, name))
            sum += d;
        return sum;
    };
    L.set("isa.assemble_us",
          total(all, "isa.assemble") / static_cast<double>(setups.size()) *
              1e6 * speed,
          "us");
    L.set("isa.load_us", total(spans, "isa.load") / n_traced * 1e6 * speed,
          "us");
    L.set("board.compose_us",
          total(spans, "board.compose") / n_traced * 1e6 * speed, "us");

    for (const std::string &k : kernelNames()) {
        std::vector<double> ns;
        for (const Pass &p : traced) {
            const KernelPass &kp = p.kernels.at(k);
            ns.push_back(ratio(kp.cpu * 1e9, static_cast<double>(kp.cycles)) *
                         speed);
        }
        // Simulated counts repeat exactly pass to pass.
        const MachineStats &st = traced.back().kernels.at(k).stats;
        double cyc = static_cast<double>(st.cycles);
        double sb = ratio(static_cast<double>(st.superblockCycles), cyc);
        double ff = ratio(static_cast<double>(st.fastForwardedCycles), cyc);
        L.set("sim.ns_per_cycle." + k, median(ns), "ns");
        L.set("sim.sb_share." + k, sb, "share");
        L.set("sim.sb_cycles_per_enter." + k,
              ratio(static_cast<double>(st.superblockCycles),
                    static_cast<double>(st.superblockEnters)),
              "cycles");
        L.set("sim.ff_share." + k, ff, "share");
        L.set("sim.ff_cycles_per_jump." + k,
              ratio(static_cast<double>(st.fastForwardedCycles),
                    static_cast<double>(st.fastForwards)),
              "cycles");
        L.set("sim.step_share." + k, 1.0 - sb - ff, "share");
        L.set("sim.ipc." + k,
              ratio(static_cast<double>(st.totalRetired), cyc),
              "insn/cycle");
        L.set("arch.ext_access_per_kcycle." + k,
              ratio(static_cast<double>(st.externalReads +
                                        st.externalWrites) *
                        1e3,
                    cyc),
              "1/kcycle");
        L.set("arch.bus_rejections." + k,
              static_cast<double>(st.busBusyRejections), "count");
        L.set("arch.vectors." + k, static_cast<double>(st.vectorsTaken),
              "count");
        if (k == "zoo") {
            for (unsigned b = 0; b < kNumSbBails; ++b)
                L.set(std::string("sim.sb_bails.") +
                          sbBailName(static_cast<SbBail>(b)) + ".zoo",
                      static_cast<double>(st.superblockBails[b]), "count");
        }
    }

    std::map<std::string, double> self = layerSelfSeconds(spans);
    for (const std::string &l : layerNames())
        L.set("self_ms." + l, self[l] / n_traced * 1e3 * speed, "ms");
    L.set("trace.overhead_share", median(twall_ms) / median(wall_ms) - 1,
          "share");
}

} // namespace perfbench
