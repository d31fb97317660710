/**
 * @file
 * The metric catalogues: every name and unit the benchmark prints.
 * BENCHMARK.json must list exactly these (run.py checks it on every
 * run); README.md says which end-to-end metric each per-layer metric
 * should move, and on which workload.
 */

#include "bench.hh"

namespace perfbench
{

const std::vector<std::string> &
kernelNames()
{
    static const std::vector<std::string> k = {
        "single_stream", "four_stream", "bus", "io_bound", "zoo"};
    return k;
}

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> l = {
        "isa", "board", "sim", "arch", "stochastic", "common", "serve"};
    return l;
}

const std::vector<MetricDecl> &
endToEndCatalog()
{
    static const std::vector<MetricDecl> c = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"sim_mcps", "Mcycles/s"},
        {"op_p50_ms", "ms"},
    };
    return c;
}

const std::vector<MetricDecl> &
perLayerCatalog()
{
    static const std::vector<MetricDecl> c = [] {
        std::vector<MetricDecl> v = {
            {"isa.assemble_us", "us"},
            {"isa.load_us", "us"},
            {"board.compose_us", "us"},
        };
        for (const std::string &k : kernelNames()) {
            v.push_back({"sim.ns_per_cycle." + k, "ns"});
            v.push_back({"sim.sb_share." + k, "share"});
            v.push_back({"sim.sb_cycles_per_enter." + k, "cycles"});
            v.push_back({"sim.ff_share." + k, "share"});
            v.push_back({"sim.ff_cycles_per_jump." + k, "cycles"});
            v.push_back({"sim.step_share." + k, "share"});
            v.push_back({"sim.ipc." + k, "insn/cycle"});
            v.push_back({"arch.ext_access_per_kcycle." + k, "1/kcycle"});
            v.push_back({"arch.bus_rejections." + k, "count"});
            v.push_back({"arch.vectors." + k, "count"});
        }
        for (const char *b :
             {"branch", "abi", "interrupt", "budget", "stream"})
            v.push_back({std::string("sim.sb_bails.") + b + ".zoo",
                         "count"});
        for (const MetricDecl &d : std::vector<MetricDecl>{
                 {"replicas.run_s", "s"},
                 {"replicas.cycles", "cycles"},
                 {"stochastic.model_ns_per_cycle", "ns"},
                 {"experiment.cell_s.p50", "s"},
                 {"experiment.cell_s.max", "s"},
                 {"pool.busy_share", "share"},
                 {"host.probe_ms", "ms"},
                 {"serve.attempted", "count"},
                 {"serve.failed", "count"},
                 {"serve.failed.busy_queue_full", "count"},
                 {"serve.failed.busy_deadline", "count"},
                 {"serve.failed.busy_draining", "count"},
                 {"serve.failed.error", "count"},
                 {"serve.failed.no_reply", "count"},
                 {"serve.failed.digest", "count"},
                 {"serve.gen_lag_us.p99", "us"},
                 {"serve.req_p50_us", "us"},
                 {"serve.req_tail_us", "us"},
                 {"serve.req_tail_pct", "%"},
                 {"serve.req_samples", "count"},
                 {"serve.slo_rps", "1/s"},
                 {"serve.restored_per_req", "share"},
                 {"serve.evicted_per_req", "share"},
                 {"serve.max_queue_depth", "count"},
                 {"serve.machines_per_dispatch", "count"},
                 {"serve.unattributed_share", "share"},
                 {"proto.encode_us", "us"},
                 {"proto.decode_us", "us"},
                 {"session.acquire_us.resident", "us"},
                 {"session.acquire_us.parked", "us"},
                 {"session.evict_us", "us"},
                 {"session.park_bytes", "bytes"},
                 {"session.run_us", "us"},
                 {"trace.overhead_share", "share"},
             })
            v.push_back(d);
        for (const std::string &l : layerNames())
            v.push_back({"self_ms." + l, "ms"});
        return v;
    }();
    return c;
}

} // namespace perfbench
