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
 *  - batch-width sweep: the four-stream compute loop advanced through
 *    MachineBatch lockstep dispatch vs per-machine Machine::run() at
 *    widths {1, 4, 16, 64}, best-of-three per side. The recorded
 *    batched/scalar ratio is within-run and therefore host-speed-
 *    independent — it is the absolute promise check_perf.py's
 *    --batch-min-ratio gate holds;
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
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/devices.hh"
#include "bench_util.hh"
#include "common/threadpool.hh"
#include "isa/assembler.hh"
#include "sim/batch.hh"
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
 * environments.
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
        break;
      case Dispatch::Superblock:
        m.setSuperblockExec(true);
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

/** One point on the batch-width sweep. */
struct BatchPoint
{
    unsigned width = 1;
    double batchedCyclesPerSec = 0; ///< MachineBatch lockstep
    double scalarCyclesPerSec = 0;  ///< per-machine Machine::run()
    double ratio = 0;               ///< batched / scalar
};

/**
 * Batched-vs-scalar throughput at one batch width on the four-stream
 * compute loop. Both sides advance `width` identically configured
 * machines by the same per-call budget; the only difference is
 * whether a MachineBatch dispatch or a per-machine run() loop drives
 * them, so the ratio is a host-speed-independent measure of what the
 * lockstep tier buys. Samples are interleaved batched/scalar and the
 * best of three kept per side: the workload is deterministic, so
 * repeats only reject scheduler noise — single samples on a busy
 * host swing the ratio by +-0.1.
 */
BatchPoint
measureBatchWidth(unsigned width, double budget_sec)
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
    auto build = [&p](unsigned n) {
        std::vector<std::unique_ptr<Machine>> ms;
        for (unsigned i = 0; i < n; ++i) {
            ms.push_back(std::make_unique<Machine>());
            ms.back()->load(p);
            for (StreamId s = 0; s < kNumStreams; ++s)
                ms.back()->startStream(s, p.symbol("entry"));
        }
        return ms;
    };
    std::vector<std::unique_ptr<Machine>> bms = build(width);
    std::vector<std::unique_ptr<Machine>> sms = build(width);
    MachineBatch mb(width);
    for (std::unique_ptr<Machine> &m : bms)
        mb.add(m.get());

    constexpr Cycle kChunk = 100000;
    auto batchedOnce = [&] { mb.run(kChunk, false); };
    auto scalarOnce = [&] {
        for (std::unique_ptr<Machine> &m : sms)
            m->run(kChunk, false);
    };
    // With stop_when_idle = false every machine advances exactly
    // kChunk cycles per call on this never-idle loop, so a call is a
    // fixed quantum of simulated work on both sides.
    const double per_call = static_cast<double>(kChunk) * width;
    auto sample = [&](const std::function<void()> &once) {
        std::uint64_t calls = 0;
        auto start = Clock::now();
        double elapsed = 0;
        do {
            once();
            ++calls;
            elapsed = secondsSince(start);
        } while (elapsed < budget_sec);
        return static_cast<double>(calls) * per_call / elapsed;
    };

    batchedOnce(); // warm both paths before timing
    scalarOnce();
    BatchPoint pt;
    pt.width = width;
    for (int rep = 0; rep < 3; ++rep) {
        pt.batchedCyclesPerSec =
            std::max(pt.batchedCyclesPerSec, sample(batchedOnce));
        pt.scalarCyclesPerSec =
            std::max(pt.scalarCyclesPerSec, sample(scalarOnce));
    }
    pt.ratio = pt.scalarCyclesPerSec > 0
                   ? pt.batchedCyclesPerSec / pt.scalarCyclesPerSec
                   : 0;
    return pt;
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

    // Batch-width sweep: lockstep MachineBatch vs per-machine run()
    // on the four-stream compute loop. The ratio column is the
    // host-independent quantity (both sides move with host speed).
    constexpr unsigned kBatchWidths[] = {1, 4, 16, 64};
    std::vector<BatchPoint> bpoints;
    for (unsigned w : kBatchWidths) {
        bpoints.push_back(measureBatchWidth(w, budget));
        const BatchPoint &bp = bpoints.back();
        std::printf("  batch width %-10u %10.2f Mcycles/s  vs scalar "
                    "%.2f Mcycles/s  ratio %.2fx\n",
                    bp.width, bp.batchedCyclesPerSec / 1e6,
                    bp.scalarCyclesPerSec / 1e6, bp.ratio);
    }

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
        << "  \"schema\": 4,\n"
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
        << "  \"batch\": {\n"
        << "    \"widths\": [\n";
    for (std::size_t i = 0; i < bpoints.size(); ++i) {
        const BatchPoint &bp = bpoints[i];
        out << "      {\"width\": " << bp.width
            << ", \"batched_cycles_per_sec\": " << bp.batchedCyclesPerSec
            << ", \"scalar_cycles_per_sec\": " << bp.scalarCyclesPerSec
            << ", \"ratio\": " << bp.ratio << "}"
            << (i + 1 < bpoints.size() ? ",\n" : "\n");
    }
    out << "    ]\n"
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
