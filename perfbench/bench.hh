/**
 * @file
 * Shared declarations of the benchmark program: options, the outcome
 * a workload fills in, the metric catalogues and host probes.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hh"
#include "trace.hh"

namespace perfbench
{

/** Command-line options (see discbench.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Test hook: flip every reference digest, so every check fails. */
    bool corruptReference = false;
    std::string repoRoot = ".";  ///< checkout root (examples/boards)
    std::string workDir;         ///< state dirs, span files, logs
    std::string serveBin;        ///< disc-serve executable
    unsigned threads = 4;        ///< nproc, capped at 4
};

/** What a workload reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool clean = true; ///< false: the run itself broke (not a slow op)
    MetricTable e2e;   ///< end-to-end metrics (untraced operations)
    MetricTable layer; ///< per-layer metrics (traced run only)
};

void runMachineWorkload(const Options &opt, Tracer &tr, Outcome &out);
void runTablesWorkload(const Options &opt, Tracer &tr, Outcome &out);
void runServeWorkload(const Options &opt, Tracer &tr, Outcome &out);

/** A metric every run of its kind prints: name and unit. */
struct MetricDecl
{
    std::string name;
    std::string unit;
};

/** The end-to-end metrics, printed by every untraced run. */
const std::vector<MetricDecl> &endToEndCatalog();

/** The per-layer metrics, printed by every traced run. */
const std::vector<MetricDecl> &perLayerCatalog();

/** Names of the five machine kernels, in run order. */
const std::vector<std::string> &kernelNames();

/** Layers whose self time the traced run reports. */
const std::vector<std::string> &layerNames();

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds used by the calling thread. */
double threadCpuSeconds();

/** CPU seconds used by this process (all threads). */
double processCpuSeconds();

/** CPU seconds used so far by process @p pid (-1 if unreadable). */
double pidCpuSeconds(int pid);

/** Peak resident set (VmHWM) of process @p pid, 0 = self, in MB. */
double peakRssMb(int pid = 0);

/** Interpreter steps of one full host-speed probe. */
constexpr std::uint64_t kProbeSteps = 300000;

/** Probe data. machine and paper_tables use 2 MB, beyond L2: over the
 *  same eight machine runs it tracked the simulator's drift better than
 *  a 4 KB loop (scaled op_p50_ms spread 0.044 against 0.093). serve
 *  uses 4 KB, because its probe runs between requests and must not
 *  evict the server's data. */
constexpr std::size_t kProbeWordsCache = std::size_t(1) << 18;
constexpr std::size_t kProbeWordsL1 = 512;

/** Probe time of kProbeSteps that defines the reference host speed. */
constexpr double kProbeNominalSeconds = 0.004;

/**
 * Host-speed probe: thread CPU seconds of one fixed bytecode-interpreter
 * loop compiled into the benchmark (independent of the simulator).
 *
 * On a 4-vCPU VM the simulator's speed drifted by up to 35% between
 * runs minutes apart, the same on every vCPU, with the same binary and
 * seed. This probe, timed on the same thread between the measured
 * calls, moved with it, so every workload's end-to-end time metrics are
 * scaled to the speed at which a probe of kProbeSteps takes
 * kProbeNominalSeconds. A shorter probe (fewer @p steps) is scaled up
 * by kProbeSteps / steps before it is compared.
 */
double hostProbeSeconds(std::uint64_t steps = kProbeSteps,
                        std::size_t words = kProbeWordsCache);

/** Read a whole file; throws std::runtime_error when unreadable. */
std::string readText(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
