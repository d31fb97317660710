/**
 * @file
 * Workload `paper_tables`: regenerate the paper's Tables 4.2a/b (16
 * partition cells) and 4.3a/b (12 mix cells) through runPartitioned /
 * runExperiment on a ThreadPool sized explicitly to nproc, then run
 * crossval-style cycle-accurate replicas through runMachineReplicas.
 *
 * Why: this is the paper's own evaluation. The stochastic model, the
 * experiment aggregation and the thread pool do the work; the machine
 * runs only in the replica part, through MachineBatch lanes — the one
 * caller where batching does real work. Building the pool explicitly
 * ignores DISC_THREADS (an empty value silently makes the global pool
 * serial).
 *
 * One operation is one regeneration of both tables. Every cell's
 * PD/Ps/delta must be bit-equal to a 1-thread regeneration made
 * before timing, and every replica's runDigest must equal a scalar
 * Machine::run() of the same replica.
 */

#include <memory>

#include "arch/devices.hh"
#include "bench.hh"
#include "common/random.hh"
#include "common/threadpool.hh"
#include "isa/assembler.hh"
#include "sim/digest.hh"
#include "sim/machine.hh"
#include "stochastic/experiment.hh"
#include "stochastic/load.hh"

using namespace disc;

namespace perfbench
{

namespace
{

constexpr unsigned kReplications = 5; ///< per cell, as bench/table_4x
constexpr unsigned kCells42 = 16;
constexpr unsigned kCells43 = 12;
constexpr unsigned kMachineReplicas = 32;
constexpr Cycle kReplicaHorizon = 200000;

StochasticConfig
tableConfig()
{
    StochasticConfig cfg;
    cfg.warmup = 5000;
    cfg.horizon = 200000;
    return cfg;
}

/** Table 4.3 cell: load 1 with load x in one of four stream layouts. */
std::vector<SourceFactory>
mixStreams(unsigned cell)
{
    LoadSpec l1 = standardLoad(1);
    LoadSpec lx = standardLoad(2 + cell / 4);
    switch (cell % 4) {
      case 0:
        return {makeCombinedFactory(l1, lx)};
      case 1:
        return {makeLoadFactory(l1), makeLoadFactory(lx)};
      case 2:
        return {makeLoadFactory(l1), makeLoadFactory(l1),
                makeLoadFactory(lx)};
      default:
        return {makeLoadFactory(l1), makeLoadFactory(l1),
                makeLoadFactory(lx), makeLoadFactory(lx)};
    }
}

struct Tables
{
    std::vector<ExperimentResult> cells; ///< 4.2 cells, then 4.3 cells
};

bool
sameStat(const RunningStat &a, const RunningStat &b)
{
    return a.count() == b.count() && a.mean() == b.mean() &&
           a.variance() == b.variance() && a.min() == b.min() &&
           a.max() == b.max();
}

bool
sameCell(const ExperimentResult &a, const ExperimentResult &b)
{
    return sameStat(a.pd, b.pd) && sameStat(a.ps, b.ps) &&
           sameStat(a.delta, b.delta);
}

/** Regenerate both tables on @p pool; one span per cell. */
Tables
regenerate(ThreadPool &pool, std::uint64_t base42, std::uint64_t base43,
           Tracer &tr)
{
    StochasticConfig cfg = tableConfig();
    Tables t;
    t.cells.resize(kCells42 + kCells43);
    {
        Scope pf(&tr, "common.parallel_for");
        std::uint64_t parent = pf.id();
        pool.parallelFor(kCells42, [&](std::size_t cell) {
            Scope sp(&tr, "stochastic.cell", 0, parent);
            unsigned ld = 1 + static_cast<unsigned>(cell / 4);
            unsigned k = 1 + static_cast<unsigned>(cell % 4);
            t.cells[cell] = runPartitioned(cfg, standardLoad(ld), k,
                                           kReplications, base42, &pool);
        });
    }
    {
        Scope pf(&tr, "common.parallel_for");
        std::uint64_t parent = pf.id();
        pool.parallelFor(kCells43, [&](std::size_t cell) {
            Scope sp(&tr, "stochastic.cell", 0, parent);
            t.cells[kCells42 + cell] =
                runExperiment(cfg, mixStreams(static_cast<unsigned>(cell)),
                              kReplications, base43, &pool);
        });
    }
    return t;
}

/** Crossval-style replica programs: jump-only and I/O-only loops whose
 *  addend comes from the replica seed through g1. */
struct ReplicaInputs
{
    Program jump;
    Program io;
};

ReplicaInputs
assembleReplicas(Tracer &tr)
{
    Scope sp(&tr, "isa.assemble");
    ReplicaInputs in;
    in.jump = assemble(R"(
        .org 0x20
        entry:
            ldi r1, 1
            add r2, r2, g1
            ldi r3, 3
            ldi r4, 4
            jmp entry
    )");
    in.io = assemble(R"(
        .org 0x20
        entry:
            ldi  g0, 0x00
            ldih g0, 0x10
        loop:
            ldi r1, 1
            add r2, r2, g1
            ldi r3, 3
            ldi r4, 4
            ldi r5, 5
            ldi r6, 6
            ldi r7, 7
            ld  r1, [g0]
            jmp loop
    )");
    return in;
}

/** Replica rep: jump or io program, 1..4 streams, addend from seed. */
MachineFactory
replicaFactory(const ReplicaInputs &in,
               std::vector<std::unique_ptr<ExternalMemoryDevice>> &devs)
{
    return [&in, &devs](unsigned rep, std::uint64_t seed) {
        auto m = std::make_unique<Machine>();
        bool io = (rep / kNumStreams) % 2 == 1;
        if (io) {
            devs[rep] = std::make_unique<ExternalMemoryDevice>(64, 6);
            m->attachDevice(0x1000, 64, devs[rep].get());
        }
        const Program &p = io ? in.io : in.jump;
        m->load(p);
        m->writeReg(0, reg::G1, static_cast<Word>(1 + seed % 1000));
        for (StreamId s = 0; s <= rep % kNumStreams; ++s)
            m->startStream(s, p.symbol("entry"));
        return m;
    };
}

std::uint64_t
digestOf(const Machine &m)
{
    ExecTrace none(1);
    return runDigest(m, none);
}

} // namespace

void
runTablesWorkload(const Options &opt, Tracer &tr, Outcome &out)
{
    Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x7461626cULL);
    const std::uint64_t base42 = rng.next64();
    const std::uint64_t base43 = rng.next64();
    const std::uint64_t baseReplicas = rng.next64();

    // Set-up, several times: the pool, the replica programs, and one
    // build (construction, Machine::load) of every replica machine.
    std::vector<double> setups;
    std::unique_ptr<ThreadPool> pool;
    ReplicaInputs rin;
    std::vector<double> probes;
    for (int rep = 0; rep < 31; ++rep) {
        pool.reset();
        probes.push_back(hostProbeSeconds());
        Clock::time_point t0 = Clock::now();
        {
            Scope sp(&tr, "common.pool_create");
            pool = std::make_unique<ThreadPool>(opt.threads);
        }
        rin = assembleReplicas(tr);
        std::vector<std::unique_ptr<ExternalMemoryDevice>> devs(
            kMachineReplicas);
        MachineFactory make = replicaFactory(rin, devs);
        {
            Scope sp(&tr, "sim.build_replicas");
            for (unsigned r = 0; r < kMachineReplicas; ++r)
                make(r, r);
        }
        setups.push_back(secondsSince(t0));
    }

    // References (untimed): a 1-thread regeneration of the tables and
    // a scalar run of every replica.
    tr.setEnabled(false);
    ThreadPool serial(1);
    Tables ref = regenerate(serial, base42, base43, tr);
    std::vector<std::uint64_t> refDigests(kMachineReplicas);
    {
        std::vector<std::unique_ptr<ExternalMemoryDevice>> devs(
            kMachineReplicas);
        MachineFactory make = replicaFactory(rin, devs);
        // Capture the seed runMachineReplicas hands each replica (a
        // zero-cycle call), then run every replica scalar.
        std::vector<std::uint64_t> seeds(kMachineReplicas);
        runMachineReplicas(
            [&](unsigned rep, std::uint64_t seed) {
                seeds[rep] = seed;
                return make(rep, seed);
            },
            kMachineReplicas, 0, baseReplicas, &serial);
        for (unsigned r = 0; r < kMachineReplicas; ++r) {
            std::unique_ptr<Machine> m = make(r, seeds[r]);
            m->run(kReplicaHorizon, false);
            refDigests[r] = digestOf(*m);
        }
    }
    if (opt.corruptReference) {
        ref.cells[0].pd.add(1.0);
        for (std::uint64_t &d : refDigests)
            d ^= 1;
    }

    struct Iter
    {
        double tablesWall = 0;
        double replicasWall = 0;
        double replicasCpu = 0;
        Cycle replicaCycles = 0;
    };
    auto once = [&](bool traced) {
        for (int i = 0; i < 3 && !traced; ++i)
            probes.push_back(hostProbeSeconds());
        tr.setEnabled(traced);
        Iter it;
        Scope root(&tr, "bench.op");
        Clock::time_point t0 = Clock::now();
        Tables t = regenerate(*pool, base42, base43, tr);
        it.tablesWall = secondsSince(t0);
        for (std::size_t c = 0; c < t.cells.size(); ++c) {
            ++out.attempted;
            if (!sameCell(t.cells[c], ref.cells[c]))
                ++out.failed;
        }

        std::vector<std::unique_ptr<ExternalMemoryDevice>> devs(
            kMachineReplicas);
        MachineFactory make = replicaFactory(rin, devs);
        double cpu0 = processCpuSeconds();
        t0 = Clock::now();
        std::vector<std::unique_ptr<Machine>> machines;
        {
            Scope sp(&tr, "stochastic.replicas");
            machines = runMachineReplicas(make, kMachineReplicas,
                                          kReplicaHorizon, baseReplicas,
                                          pool.get());
        }
        it.replicasWall = secondsSince(t0);
        it.replicasCpu = processCpuSeconds() - cpu0;
        for (unsigned r = 0; r < kMachineReplicas; ++r) {
            it.replicaCycles += machines[r]->stats().cycles;
            ++out.attempted;
            if (digestOf(*machines[r]) != refDigests[r])
                ++out.failed;
        }
        return it;
    };

    once(false); // warm-up
    std::vector<Iter> plain, traced;
    Clock::time_point start = Clock::now();
    while (secondsSince(start) < opt.seconds || plain.size() < 3 ||
           (opt.trace && traced.size() < 3)) {
        plain.push_back(once(false));
        if (opt.trace)
            traced.push_back(once(true));
    }
    tr.setEnabled(opt.trace);

    // Times are scaled to the reference host speed (see bench.hh).
    const double speed = kProbeNominalSeconds / median(probes);
    std::vector<double> tables_ms, mcps, ttables_ms;
    for (const Iter &it : plain) {
        tables_ms.push_back(it.tablesWall * 1e3 * speed);
        mcps.push_back(static_cast<double>(it.replicaCycles) /
                       it.replicasCpu / 1e6 / speed);
    }
    out.e2e.set("setup_s", median(setups) * speed, "s");
    out.e2e.set("peak_rss_mb", peakRssMb(), "MB");
    out.e2e.set("sim_mcps", median(mcps), "Mcycles/s");
    out.e2e.set("op_p50_ms", median(tables_ms), "ms");
    if (!opt.trace)
        return;

    MetricTable &L = out.layer;
    L.set("host.probe_ms", median(probes) * 1e3, "ms");
    for (const Iter &it : traced)
        ttables_ms.push_back(it.tablesWall * 1e3 * speed);
    const std::vector<Span> all = tr.spans();
    const std::vector<Span> spans = subtree(all, "bench.op");
    const double n_traced = static_cast<double>(traced.size());

    double assemble = 0;
    for (double d : durations(all, "isa.assemble"))
        assemble += d;
    L.set("isa.assemble_us",
          assemble / static_cast<double>(setups.size()) * 1e6 * speed, "us");

    std::vector<double> rwall;
    for (const Iter &it : traced)
        rwall.push_back(it.replicasWall * speed);
    L.set("replicas.run_s", median(rwall), "s");
    L.set("replicas.cycles",
          static_cast<double>(traced.back().replicaCycles), "cycles");

    std::vector<double> cells = durations(spans, "stochastic.cell");
    L.set("experiment.cell_s.p50", median(cells) * speed, "s");
    L.set("experiment.cell_s.max", quantile(cells, 1.0) * speed, "s");
    double busy = 0, pf_wall = 0;
    for (double d : cells)
        busy += d;
    for (double d : durations(spans, "common.parallel_for"))
        pf_wall += d;
    L.set("pool.busy_share", busy / (pf_wall * pool->size()), "share");

    // One serial, traced model run of a four-stream standard load:
    // host time per simulated stochastic cycle.
    {
        StochasticConfig cfg = tableConfig();
        std::vector<std::unique_ptr<WorkSource>> sources;
        for (unsigned s = 0; s < kNumStreams; ++s)
            sources.push_back(std::make_unique<LoadProcess>(
                standardLoad(1), base42 + s));
        StochasticModel model(cfg, std::move(sources));
        Clock::time_point t0 = Clock::now();
        {
            Scope sp(&tr, "stochastic.model_run");
            model.run();
        }
        L.set("stochastic.model_ns_per_cycle",
              secondsSince(t0) * 1e9 * speed /
                  static_cast<double>(cfg.warmup + cfg.horizon),
              "ns");
    }

    std::map<std::string, double> self = layerSelfSeconds(spans);
    for (const std::string &l : layerNames())
        L.set("self_ms." + l, self[l] / n_traced * 1e3 * speed, "ms");
    L.set("trace.overhead_share", median(ttables_ms) / median(tables_ms) - 1,
          "share");
}

} // namespace perfbench
