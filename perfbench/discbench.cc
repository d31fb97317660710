/**
 * @file
 * discbench: the DISC benchmark program.
 *
 *   discbench --workload machine|paper_tables|serve --seed N
 *             --seconds S --trace 0|1 [--repo DIR] [--work-dir DIR]
 *             [--serve-bin PATH] [--corrupt-reference]
 *
 * Generates the workload's inputs from the seed, sets up (several
 * times, reporting the median), warms up, measures for S seconds,
 * checks every output against a reference, and prints as its last
 * line one JSON object: {"correct", "attempted", "failed", "metrics"}
 * where metrics are the end-to-end catalogue (--trace 0) or the
 * per-layer catalogue (--trace 1). See README.md for what each
 * workload and metric is for.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/logging.hh"

namespace perfbench
{

namespace
{

/** A small register machine run from a fixed pseudo-random program:
 *  indirect dispatch, data-dependent branches, and loads and stores at
 *  hashed addresses in @p mem (a power-of-two number of words), the
 *  instruction mix of a simulator's inner loop. */
__attribute__((noinline)) std::uint64_t
interpretProbe(std::uint64_t steps, std::vector<std::uint64_t> &mem)
{
    std::uint8_t code[1024];
    std::uint32_t s = 12345;
    for (std::uint8_t &c : code) {
        s = s * 1103515245u + 12345u;
        c = static_cast<std::uint8_t>(s >> 16);
    }
    std::uint64_t r[16];
    for (unsigned i = 0; i < 16; ++i)
        r[i] = i * 7 + 1;
    const std::size_t mask = mem.size() - 1;
    auto at = [&](std::uint64_t x) -> std::uint64_t & {
        return mem[(x * 0x9e3779b97f4a7c15ULL >> 20) & mask];
    };
    std::uint32_t pc = 0;
    for (std::uint64_t n = 0; n < steps; ++n, ++pc) {
        std::uint8_t op = code[pc & 1023];
        unsigned a = op & 15, b = op >> 4;
        switch (op % 11) {
          case 0: r[a] += r[b]; break;
          case 1: r[a] ^= r[b] << 3; break;
          case 2: r[a] = r[a] * r[b] + 1; break;
          case 3: at(r[b]) = r[a]; break;
          case 4: r[a] = at(r[b] + n); break;
          case 5: if (r[a] & 1) pc += r[b] & 7; break;
          case 6: r[a] -= r[b] >> 1; break;
          case 7: r[a] = (r[a] >> 5) | (r[b] << 7); break;
          case 8: if (r[a] < r[b]) ++r[a]; else ++r[b]; break;
          case 9: r[(a + 1) & 15] = r[a]; break;
          default: r[a] = ~r[b]; break;
        }
    }
    std::uint64_t x = 0;
    for (std::uint64_t v : r)
        x += v;
    return x;
}

} // namespace

double
hostProbeSeconds(std::uint64_t steps, std::size_t words)
{
    static volatile std::uint64_t sink = 0;
    // Allocated and touched outside the timed region.
    thread_local std::vector<std::uint64_t> mem;
    mem.assign(words, 1);
    double c0 = threadCpuSeconds();
    sink = interpretProbe(steps, mem);
    double t = threadCpuSeconds() - c0;
    (void)sink;
    return t;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
pidCpuSeconds(int pid)
{
    clockid_t clk{};
    timespec ts{};
    if (clock_getcpuclockid(pid, &clk) != 0 || clock_gettime(clk, &ts) != 0)
        return -1;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb(int pid)
{
    std::string path = pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) +
                                      "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace perfbench

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "discbench: %s\nusage: discbench --workload "
                 "machine|paper_tables|serve --seed N --seconds S "
                 "--trace 0|1 [--repo DIR] [--work-dir DIR] "
                 "[--serve-bin PATH] [--corrupt-reference]\n",
                 why);
    std::exit(2);
}

/** Print @p cat from @p have; every catalogue name must be present. */
std::string
metricsJson(const std::vector<MetricDecl> &cat, const MetricTable &have,
            bool fill_zero)
{
    MetricTable out;
    for (const MetricDecl &d : cat) {
        if (have.has(d.name)) {
            out.set(d.name, have.get(d.name), d.unit);
        } else if (fill_zero) {
            out.set(d.name, 0, d.unit);
        } else {
            throw std::logic_error("metric " + d.name + " not measured");
        }
    }
    for (const auto &[name, m] : have.all()) {
        bool known = false;
        for (const MetricDecl &d : cat)
            known = known || (d.name == name && d.unit == m.unit);
        if (!known)
            throw std::logic_error("metric " + name + " [" + m.unit +
                                   "] is not in the catalogue");
    }
    return out.json();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing option value");
            return argv[++i];
        };
        if (!std::strcmp(a, "--workload")) {
            opt.workload = value();
        } else if (!std::strcmp(a, "--seed")) {
            opt.seed = std::strtoull(value(), nullptr, 0);
            have_seed = true;
        } else if (!std::strcmp(a, "--seconds")) {
            opt.seconds = std::strtod(value(), nullptr);
            have_seconds = true;
        } else if (!std::strcmp(a, "--trace")) {
            opt.trace = std::strcmp(value(), "0") != 0;
            have_trace = true;
        } else if (!std::strcmp(a, "--repo")) {
            opt.repoRoot = value();
        } else if (!std::strcmp(a, "--work-dir")) {
            opt.workDir = value();
        } else if (!std::strcmp(a, "--serve-bin")) {
            opt.serveBin = value();
        } else if (!std::strcmp(a, "--corrupt-reference")) {
            opt.corruptReference = true;
        } else {
            usage("unknown option");
        }
    }
    if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");
    if (opt.workDir.empty())
        opt.workDir = ".";

    // Measure the program users run: the opt-out switches select
    // non-default execution tiers.
    for (const char *v : {"DISC_NO_FASTFORWARD", "DISC_NO_UOP",
                          "DISC_NO_SUPERBLOCK", "DISC_NO_BATCH"}) {
        if (std::getenv(v)) {
            std::fprintf(stderr, "discbench: refusing to run with %s set\n",
                         v);
            return 2;
        }
    }
    unsigned hw = std::thread::hardware_concurrency();
    opt.threads = hw == 0 ? 1 : (hw > 4 ? 4 : hw);

    Tracer tracer(opt.trace);
    Outcome out;
    try {
        if (opt.workload == "machine")
            runMachineWorkload(opt, tracer, out);
        else if (opt.workload == "paper_tables")
            runTablesWorkload(opt, tracer, out);
        else if (opt.workload == "serve")
            runServeWorkload(opt, tracer, out);
        else
            usage("unknown workload");

        std::string metrics =
            opt.trace ? metricsJson(perLayerCatalog(), out.layer, true)
                      : metricsJson(endToEndCatalog(), out.e2e, false);
        if (opt.trace) {
            std::string path = opt.workDir + "/spans-" + opt.workload +
                               "-" + std::to_string(opt.seed) + ".json";
            if (!tracer.writeJson(path))
                std::fprintf(stderr, "discbench: cannot write %s\n",
                             path.c_str());
            else
                std::fprintf(stderr, "discbench: spans written to %s\n",
                             path.c_str());
        }
        std::fprintf(stderr,
                     "discbench: build=%s lto=%d threads=%u "
                     "attempted=%llu failed=%llu\n",
                     PERFBENCH_BUILD_TYPE, PERFBENCH_LTO, opt.threads,
                     static_cast<unsigned long long>(out.attempted),
                     static_cast<unsigned long long>(out.failed));
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    out.clean && out.failed == 0 ? "true" : "false",
                    static_cast<unsigned long long>(out.attempted),
                    static_cast<unsigned long long>(out.failed),
                    metrics.c_str());
        return out.clean ? 0 : 1;
    } catch (const disc::FatalError &e) {
        std::fprintf(stderr, "discbench: fatal: %s\n", e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "discbench: %s\n", e.what());
    }
    return 1;
}
