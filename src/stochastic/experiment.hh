/**
 * @file
 * Replicated-run experiment driver: builds stream configurations
 * (partitioned loads, combined loads, mixes) for the stochastic
 * model, runs several seeds and aggregates PD / Ps / delta; plus the
 * cycle-accurate counterpart, which runs replica Machines in groups
 * per pool thread.
 */

#ifndef DISC_STOCHASTIC_EXPERIMENT_HH
#define DISC_STOCHASTIC_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/threadpool.hh"
#include "stochastic/model.hh"

namespace disc
{

/** Builds one stream's work source from a replication seed. */
using SourceFactory =
    std::function<std::unique_ptr<WorkSource>(std::uint64_t seed)>;

/** Aggregated measures over replications. */
struct ExperimentResult
{
    RunningStat pd;
    RunningStat ps;
    RunningStat delta;
    RunningStat busyFraction; ///< busy cycles / measured cycles
};

/** A factory for a plain LoadSpec stream. */
SourceFactory makeLoadFactory(const LoadSpec &spec);

/** A factory for a combined (two-spec) stream, e.g. load "1:4". */
SourceFactory makeCombinedFactory(const LoadSpec &a, const LoadSpec &b);

/**
 * Run the model with one stream per factory, @p replications times
 * with distinct seeds, and aggregate the measures.
 *
 * Replications run in parallel on @p pool (the global pool when
 * nullptr). Each replication's seeds depend only on (base_seed, rep,
 * stream) and per-replication results merge in replication order, so
 * the aggregate is bit-identical for every pool size. Factories are
 * invoked concurrently and must be thread-safe (the stock factories
 * are: they only copy value-captured specs).
 */
ExperimentResult runExperiment(const StochasticConfig &cfg,
                               const std::vector<SourceFactory> &streams,
                               unsigned replications,
                               std::uint64_t base_seed = 1,
                               ThreadPool *pool = nullptr);

/**
 * Table 4.2 helper: partition @p spec into @p k iid streams and run.
 */
ExperimentResult runPartitioned(const StochasticConfig &cfg,
                                const LoadSpec &spec, unsigned k,
                                unsigned replications,
                                std::uint64_t base_seed = 1,
                                ThreadPool *pool = nullptr);

class Machine;

/**
 * Builds one replication's fully-prepared Machine: program loaded,
 * streams started, devices attached (any device a replica needs must
 * be owned by the factory's captures, indexed by @p rep so slots are
 * never shared). Invoked concurrently; must be thread-safe.
 */
using MachineFactory =
    std::function<std::unique_ptr<Machine>(unsigned rep,
                                           std::uint64_t seed)>;

/**
 * Run @p replications cycle-accurate replicas for @p horizon cycles
 * and return the Machines in replication order for inspection.
 *
 * Replicas are distributed over @p pool (the global pool when
 * nullptr) in contiguous groups; each replica advances by
 * Machine::run(horizon, false), so per-machine state is independent
 * of the pool size. Seeds depend only on (base_seed, rep).
 */
std::vector<std::unique_ptr<Machine>>
runMachineReplicas(const MachineFactory &make, unsigned replications,
                   Cycle horizon, std::uint64_t base_seed = 1,
                   ThreadPool *pool = nullptr);

} // namespace disc

#endif // DISC_STOCHASTIC_EXPERIMENT_HH
