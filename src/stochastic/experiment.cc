#include "stochastic/experiment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/machine.hh"

namespace disc
{

namespace
{

/**
 * One replication's private output slot, padded to a cache line so
 * adjacent replications never write-share a line. Everything else a
 * replication touches (sources, RNG, model, run totals) is built
 * inside its own lambda body, so worker threads share no mutable
 * state at all: the job scales to the pool with no coherence traffic.
 */
struct alignas(64) ReplicaArena
{
    ExperimentResult result;
};

/** Mix a stream index into a replication seed. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t stream)
{
    std::uint64_t x = base * 0x9e3779b97f4a7c15ULL + stream + 1;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

} // namespace

SourceFactory
makeLoadFactory(const LoadSpec &spec)
{
    return [spec](std::uint64_t seed) {
        return std::make_unique<LoadProcess>(spec, seed);
    };
}

SourceFactory
makeCombinedFactory(const LoadSpec &a, const LoadSpec &b)
{
    return [a, b](std::uint64_t seed) {
        return std::make_unique<CombinedSource>(
            std::make_unique<LoadProcess>(a, mixSeed(seed, 101)),
            std::make_unique<LoadProcess>(b, mixSeed(seed, 202)));
    };
}

ExperimentResult
runExperiment(const StochasticConfig &cfg,
              const std::vector<SourceFactory> &streams,
              unsigned replications, std::uint64_t base_seed,
              ThreadPool *pool)
{
    if (streams.empty())
        fatal("experiment needs at least one stream");
    if (replications == 0)
        fatal("experiment needs at least one replication");
    if (!pool)
        pool = &ThreadPool::global();

    // One single-sample result per replication, produced in parallel
    // into cache-line-isolated arenas; the reduction below merges them
    // in replication order so the aggregate does not depend on the
    // pool size.
    std::vector<ReplicaArena> reps(replications);
    // Replicas are handed out in contiguous groups — one pool task
    // per group, two groups per thread for balance — so each worker
    // runs its replicas back-to-back instead of claiming them one at
    // a time. Seeds depend only on (base_seed, rep), so the grouping
    // cannot change any result.
    std::size_t group = replications / (2 * pool->size());
    if (group == 0)
        group = 1;
    pool->parallelForGroups(
        replications, group, [&](std::size_t begin, std::size_t end) {
            for (std::size_t rep = begin; rep < end; ++rep) {
                std::vector<std::unique_ptr<WorkSource>> sources;
                sources.reserve(streams.size());
                for (std::size_t s = 0; s < streams.size(); ++s)
                    sources.push_back(
                        streams[s](mixSeed(base_seed + rep, s)));
                StochasticModel model(cfg, std::move(sources));
                RunTotals t = model.run();
                ExperimentResult &r = reps[rep].result;
                r.pd.add(t.pd());
                r.ps.add(t.ps(cfg.pipeDepth));
                r.delta.add(t.delta(cfg.pipeDepth));
                r.busyFraction.add(
                    t.cycles ? static_cast<double>(t.busyCycles) /
                                   static_cast<double>(t.cycles)
                             : 0.0);
            }
        });

    ExperimentResult result;
    for (const ReplicaArena &a : reps) {
        result.pd.merge(a.result.pd);
        result.ps.merge(a.result.ps);
        result.delta.merge(a.result.delta);
        result.busyFraction.merge(a.result.busyFraction);
    }
    return result;
}

ExperimentResult
runPartitioned(const StochasticConfig &cfg, const LoadSpec &spec,
               unsigned k, unsigned replications, std::uint64_t base_seed,
               ThreadPool *pool)
{
    if (k == 0 || k > kNumStreams)
        fatal("cannot partition into %u streams", k);
    std::vector<SourceFactory> streams(k, makeLoadFactory(spec));
    return runExperiment(cfg, streams, replications, base_seed, pool);
}

std::vector<std::unique_ptr<Machine>>
runMachineReplicas(const MachineFactory &make, unsigned replications,
                   Cycle horizon, std::uint64_t base_seed,
                   ThreadPool *pool)
{
    if (replications == 0)
        fatal("experiment needs at least one replication");
    if (!pool)
        pool = &ThreadPool::global();

    std::vector<std::unique_ptr<Machine>> machines(replications);
    // Same grouping as runExperiment(); neither grouping nor pool size
    // is observable in the results.
    std::size_t group = replications / (2 * pool->size());
    if (group == 0)
        group = 1;
    pool->parallelForGroups(
        replications, group, [&](std::size_t begin, std::size_t end) {
            for (std::size_t rep = begin; rep < end; ++rep) {
                machines[rep] = make(static_cast<unsigned>(rep),
                                     mixSeed(base_seed, rep));
                machines[rep]->run(horizon, false);
            }
        });
    return machines;
}

} // namespace disc
