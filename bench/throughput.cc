/**
 * @file
 * Host-throughput tracker: how fast the simulators run on this
 * machine, written to BENCH_throughput.json so the performance
 * trajectory of the repo is recorded PR over PR.
 *
 * Measured quantities:
 *  - cycle-accurate Machine: simulated cycles/sec and simulated MIPS
 *    (retired instructions/sec) for a single-stream compute loop, a
 *    four-stream compute loop and a four-stream external-bus workload;
 *  - hot-chunk ratio: the four-stream compute loop through Machine::run()
 *    with hot chunks vs run() with batchExec = false (the per-cycle
 *    walk), best-of-three per side. The recorded ratio is within-run
 *    and therefore host-speed-independent — it is the absolute promise
 *    check_perf.py's --hot-min-ratio gate holds;
 *  - stochastic model: simulated cycles/sec (events) for a four-stream
 *    standard-load run;
 *  - experiment harness: wall-clock for the same replicated experiment
 *    swept over explicit pool sizes {1, 2, 4, hardware}, recording the
 *    thread-scaling curve (speedup of each size over the 1-thread
 *    pool). Sweeping explicit sizes — rather than timing whatever
 *    ThreadPool::global() happens to be — is what makes the recorded
 *    speedup meaningful on any host: the old schema-1 bench compared
 *    the serial pool against a global pool that is itself sized 1 on
 *    single-core machines, and dutifully recorded speedup 0.99.
 *
 * Usage: throughput [--out FILE] [--budget SECONDS-PER-MEASUREMENT]
 * The default output path is BENCH_throughput.json in the current
 * directory (CI runs benches from the repo root).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/devices.hh"
#include "bench_util.hh"
#include "common/threadpool.hh"
#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "stochastic/experiment.hh"

using namespace disc;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One machine workload measurement. */
struct MachineRate
{
    double cyclesPerSec = 0;
    double mips = 0; ///< retired instructions per second / 1e6
};

/**
 * Execution tier under measurement. The default-configured machine
 * (all tiers enabled, environment overrides respected) feeds the
 * long-lived "machine" section; the dispatch sweep forces each tier
 * explicitly so the per-tier numbers are comparable across hosts and
 * environments. Both forced tiers run without hot chunks, which the
 * "hot" section measures on its own.
 */
enum class Dispatch
{
    Default,    ///< whatever Machine's config + environment picked
    Uop,        ///< per-cycle micro-op dispatch, no superblocks
    Superblock, ///< superblock tier above the per-cycle path
};

constexpr Dispatch kDispatchModes[] = {Dispatch::Uop, Dispatch::Superblock};
constexpr unsigned kNumDispatchModes = std::size(kDispatchModes);

const char *
dispatchName(Dispatch d)
{
    switch (d) {
      case Dispatch::Uop: return "uop";
      case Dispatch::Superblock: return "superblock";
      default: return "default";
    }
}

void
applyDispatch(Machine &m, Dispatch d)
{
    switch (d) {
      case Dispatch::Default:
        break;
      case Dispatch::Uop:
        m.setSuperblockExec(false);
        m.setBatchExec(false);
        break;
      case Dispatch::Superblock:
        m.setSuperblockExec(true);
        m.setBatchExec(false);
        break;
    }
}

/**
 * Step a machine in chunks until the time budget elapses and report
 * simulated cycles/sec and MIPS over the whole run.
 */
MachineRate
measureMachine(Machine &m, double budget_sec)
{
    constexpr Cycle kChunk = 100000;
    m.run(kChunk, false); // warm the caches before timing
    Cycle cycles0 = m.stats().cycles;
    std::uint64_t retired0 = m.stats().totalRetired;
    auto start = Clock::now();
    double elapsed = 0;
    do {
        m.run(kChunk, false);
        elapsed = secondsSince(start);
    } while (elapsed < budget_sec);
    MachineRate r;
    r.cyclesPerSec =
        static_cast<double>(m.stats().cycles - cycles0) / elapsed;
    r.mips = static_cast<double>(m.stats().totalRetired - retired0) /
             elapsed / 1e6;
    return r;
}

MachineRate
measureComputeLoop(unsigned streams, double budget_sec,
                   Dispatch d = Dispatch::Default)
{
    Program p = assemble(R"(
        .org 0x20
        entry:
            ldi r1, 1
            ldi r2, 2
            add r3, r1, r2
            add r4, r3, r2
            sub r5, r4, r1
            jmp entry
    )");
    Machine m;
    m.load(p);
    applyDispatch(m, d);
    for (StreamId s = 0; s < streams; ++s)
        m.startStream(s, p.symbol("entry"));
    return measureMachine(m, budget_sec);
}

MachineRate
measureBusTraffic(double budget_sec, ExternalMemoryDevice &dev,
                  Dispatch d = Dispatch::Default)
{
    Program p = assemble(R"(
        .org 0x20
        entry:
            ldi  g0, 0x00
            ldih g0, 0x10
        loop:
            ld   r1, [g0]
            addi r2, r2, 1
            st   r2, [g0+1]
            jmp  loop
    )");
    Machine m;
    m.attachDevice(0x1000, 64, &dev);
    m.load(p);
    applyDispatch(m, d);
    for (StreamId s = 0; s < kNumStreams; ++s)
        m.startStream(s, p.symbol("entry"));
    return measureMachine(m, budget_sec);
}

/**
 * I/O-bound scenario: four streams hammering very slow devices, so
 * almost every simulated cycle is a wait state. This is the workload
 * the event-scheduled core's fast-forward is built for — the machine
 * jumps from completion to completion instead of idling cycle by
 * cycle.
 */
MachineRate
measureIoBound(double budget_sec)
{
    Program p = assemble(R"(
        .org 0x20
        entry:
            mov  r7, sr
            shr  r7, r7, g2   ; g2 = 4: stream id from SR[5:4]
            andi r7, r7, 3
            ldi  g0, 0x00
            ldih g0, 0x10     ; 0x1000 + 0x100 * stream id
            shl  r6, r7, g3   ; g3 = 8
            add  g0, g0, r6
        loop:
            ld   r1, [g0]
            addi r2, r2, 1
            st   r2, [g0+1]
            jmp  loop
    )");
    Machine m;
    std::vector<std::unique_ptr<ExternalMemoryDevice>> devs;
    for (StreamId s = 0; s < kNumStreams; ++s) {
        devs.push_back(std::make_unique<ExternalMemoryDevice>(64, 100));
        m.attachDevice(static_cast<Addr>(0x1000 + s * 0x100), 64,
                       devs.back().get());
    }
    m.load(p);
    m.writeReg(0, reg::G2, 4);
    m.writeReg(0, reg::G3, 8);
    for (StreamId s = 0; s < kNumStreams; ++s)
        m.startStream(s, p.symbol("entry"));
    return measureMachine(m, budget_sec);
}

/** Hot chunks against the per-cycle walk on one workload. */
struct HotRatio
{
    double hotCyclesPerSec = 0;      ///< run() with hot chunks
    double perCycleCyclesPerSec = 0; ///< run() with batchExec = false
    double ratio = 0;                ///< hot / per-cycle
};

/**
 * Hot-chunk vs per-cycle throughput on the four-stream compute loop.
 * Both sides drive an identically configured machine through run()
 * by the same per-call budget; the only difference is batchExec, so
 * the ratio is a host-speed-independent measure of what the hot-chunk
 * tier buys. Samples alternate between the sides and the best of
 * three is kept per side: the workload is deterministic, so repeats
 * only reject scheduler noise.
 */
HotRatio
measureHotRatio(double budget_sec)
{
    Program p = assemble(R"(
        .org 0x20
        entry:
            ldi r1, 1
            ldi r2, 2
            add r3, r1, r2
            add r4, r3, r2
            sub r5, r4, r1
            jmp entry
    )");
    auto build = [&p](bool hot) {
        auto m = std::make_unique<Machine>();
        m->load(p);
        m->setBatchExec(hot);
        for (StreamId s = 0; s < kNumStreams; ++s)
            m->startStream(s, p.symbol("entry"));
        return m;
    };
    std::unique_ptr<Machine> hot = build(true);
    std::unique_ptr<Machine> percycle = build(false);

    // With stop_when_idle = false every call advances exactly kChunk
    // cycles on this never-idle loop: a fixed quantum of work.
    constexpr Cycle kChunk = 100000;
    auto sample = [&](Machine &m) {
        std::uint64_t calls = 0;
        auto start = Clock::now();
        double elapsed = 0;
        do {
            m.run(kChunk, false);
            ++calls;
            elapsed = secondsSince(start);
        } while (elapsed < budget_sec);
        return static_cast<double>(calls * kChunk) / elapsed;
    };

    hot->run(kChunk, false); // warm both paths before timing
    percycle->run(kChunk, false);
    HotRatio r;
    for (int rep = 0; rep < 3; ++rep) {
        r.hotCyclesPerSec = std::max(r.hotCyclesPerSec, sample(*hot));
        r.perCycleCyclesPerSec =
            std::max(r.perCycleCyclesPerSec, sample(*percycle));
    }
    r.ratio = r.perCycleCyclesPerSec > 0
                  ? r.hotCyclesPerSec / r.perCycleCyclesPerSec
                  : 0;
    return r;
}

double
measureStochastic(double budget_sec)
{
    StochasticConfig cfg;
    cfg.warmup = 0;
    cfg.horizon = 100000;
    std::uint64_t runs = 0;
    auto start = Clock::now();
    double elapsed = 0;
    do {
        std::vector<std::unique_ptr<WorkSource>> sources;
        for (unsigned s = 0; s < kNumStreams; ++s) {
            sources.push_back(std::make_unique<LoadProcess>(
                standardLoad(1), 1000 + runs * kNumStreams + s));
        }
        StochasticModel model(cfg, std::move(sources));
        model.run();
        ++runs;
        elapsed = secondsSince(start);
    } while (elapsed < budget_sec);
    return static_cast<double>(runs) *
           static_cast<double>(cfg.horizon) / elapsed;
}

double
timeExperiment(ThreadPool &pool)
{
    StochasticConfig cfg;
    cfg.warmup = 1000;
    cfg.horizon = 100000;
    // Best of three runs: replication results are deterministic, so
    // repeats only reject scheduler noise in the wall-clock.
    double best = 0;
    for (int run = 0; run < 3; ++run) {
        auto start = Clock::now();
        runPartitioned(cfg, standardLoad(1), kNumStreams, 16, 1, &pool);
        double sec = secondsSince(start);
        if (run == 0 || sec < best)
            best = sec;
    }
    return best;
}

/** One point on the experiment thread-scaling curve. */
struct ScalingPoint
{
    unsigned threads = 1;
    double sec = 0;
    double speedup = 1;
};

/**
 * Time the replicated experiment on pools of 1, 2, 4 and
 * hardware_concurrency() threads (deduplicated, ascending).
 */
std::vector<ScalingPoint>
measureScaling()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    std::vector<unsigned> sizes{1, 2, 4};
    if (std::find(sizes.begin(), sizes.end(), hw) == sizes.end())
        sizes.push_back(hw);
    std::sort(sizes.begin(), sizes.end());

    std::vector<ScalingPoint> curve;
    for (unsigned t : sizes) {
        ThreadPool pool(t);
        ScalingPoint p;
        p.threads = t;
        p.sec = timeExperiment(pool);
        p.speedup =
            curve.empty() || p.sec <= 0 ? 1.0 : curve.front().sec / p.sec;
        curve.push_back(p);
    }
    return curve;
}

void
printRate(const char *label, const MachineRate &r)
{
    std::printf("  %-22s %10.2f Mcycles/s  %8.2f MIPS\n", label,
                r.cyclesPerSec / 1e6, r.mips);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_throughput.json";
    double budget = 0.3;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--budget") && i + 1 < argc) {
            budget = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: throughput [--out FILE] [--budget S]\n");
            return 1;
        }
    }

    bench::banner("Simulator throughput on this host");

    MachineRate single = measureComputeLoop(1, budget);
    printRate("machine 1 stream", single);
    MachineRate four = measureComputeLoop(kNumStreams, budget);
    printRate("machine 4 streams", four);
    ExternalMemoryDevice dev(64, 5);
    MachineRate bus = measureBusTraffic(budget, dev);
    printRate("machine 4 streams+bus", bus);
    MachineRate io = measureIoBound(budget);
    printRate("machine io-bound", io);

    // Per-tier sweep: the same compute/bus workloads with each
    // execution tier forced, so the recorded uop/superblock ratio is
    // host-independent (both points move together with host speed).
    struct DispatchRow
    {
        const char *scenario;
        MachineRate rates[kNumDispatchModes];
    };
    DispatchRow drows[] = {
        {"single_stream", {}},
        {"four_stream", {}},
        {"four_stream_bus", {}},
    };
    for (unsigned mi = 0; mi < kNumDispatchModes; ++mi) {
        Dispatch d = kDispatchModes[mi];
        drows[0].rates[mi] = measureComputeLoop(1, budget, d);
        drows[1].rates[mi] = measureComputeLoop(kNumStreams, budget, d);
        ExternalMemoryDevice ddev(64, 5);
        drows[2].rates[mi] = measureBusTraffic(budget, ddev, d);
    }
    for (const DispatchRow &row : drows) {
        for (unsigned mi = 0; mi < kNumDispatchModes; ++mi) {
            std::string label = std::string(row.scenario) + "/" +
                                dispatchName(kDispatchModes[mi]);
            printRate(label.c_str(), row.rates[mi]);
        }
    }

    // Hot chunks vs the per-cycle walk on the four-stream compute
    // loop. The ratio is the host-independent quantity (both sides
    // move with host speed).
    HotRatio hot = measureHotRatio(budget);
    std::printf("  %-22s %10.2f Mcycles/s  vs per-cycle %.2f Mcycles/s"
                "  ratio %.2fx\n",
                "four_stream/hot", hot.hotCyclesPerSec / 1e6,
                hot.perCycleCyclesPerSec / 1e6, hot.ratio);

    double stochastic = measureStochastic(budget);
    std::printf("  %-22s %10.2f Mcycles/s\n", "stochastic model",
                stochastic / 1e6);

    std::vector<ScalingPoint> curve = measureScaling();
    for (const ScalingPoint &p : curve) {
        std::printf("  experiment pool(%u)%*s %10.3f s   %7.2fx\n",
                    p.threads, p.threads < 10 ? 12 : 11, "", p.sec,
                    p.speedup);
    }

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    unsigned hw = std::thread::hardware_concurrency();
    out << "{\n"
        << "  \"schema\": 5,\n"
        << "  \"host_threads\": " << (hw ? hw : 1) << ",\n"
        << "  \"machine\": {\n";
    auto emit = [&out](const char *key, const MachineRate &r,
                       bool last) {
        out << "    \"" << key << "\": {\"cycles_per_sec\": "
            << r.cyclesPerSec << ", \"mips\": " << r.mips << "}"
            << (last ? "\n" : ",\n");
    };
    emit("single_stream", single, false);
    emit("four_stream", four, false);
    emit("four_stream_bus", bus, false);
    emit("io_bound", io, true);
    out << "  },\n"
        << "  \"dispatch\": {\n";
    for (std::size_t ri = 0; ri < 3; ++ri) {
        const DispatchRow &row = drows[ri];
        out << "    \"" << row.scenario << "\": {";
        for (unsigned mi = 0; mi < kNumDispatchModes; ++mi) {
            const MachineRate &r = row.rates[mi];
            out << "\"" << dispatchName(kDispatchModes[mi])
                << "\": {\"cycles_per_sec\": " << r.cyclesPerSec
                << ", \"mips\": " << r.mips << "}"
                << (mi + 1 < kNumDispatchModes ? ", " : "");
        }
        out << "}" << (ri + 1 < 3 ? ",\n" : "\n");
    }
    out << "  },\n"
        << "  \"hot\": {\n"
        << "    \"four_stream\": {\"hot_cycles_per_sec\": "
        << hot.hotCyclesPerSec << ", \"percycle_cycles_per_sec\": "
        << hot.perCycleCyclesPerSec << ", \"ratio\": " << hot.ratio
        << "}\n"
        << "  },\n"
        << "  \"stochastic\": {\"model_cycles_per_sec\": " << stochastic
        << "},\n"
        << "  \"experiment\": {\n"
        << "    \"serial_sec\": " << curve.front().sec << ",\n"
        << "    \"scaling\": [\n";
    for (std::size_t i = 0; i < curve.size(); ++i) {
        out << "      {\"threads\": " << curve[i].threads
            << ", \"sec\": " << curve[i].sec
            << ", \"speedup\": " << curve[i].speedup << "}"
            << (i + 1 < curve.size() ? ",\n" : "\n");
    }
    out << "    ]\n"
        << "  }\n"
        << "}\n";
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
