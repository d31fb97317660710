/**
 * @file
 * Self-test of the benchmark's own arithmetic: span self time, the
 * supported-tail percentile rule, and metric-name validity. Exit
 * status 0 when every check passes.
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "bench.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

Span
span(std::uint64_t id, std::uint64_t parent, std::int64_t a, std::int64_t b,
     const char *name = "layer.call")
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.start = a;
    s.end = b;
    return s;
}

void
testSelfTime()
{
    // Parent [0,100] with parallel children [10,30] and [20,50] (union
    // 40, not 50), a child [60,70], and a child running past the
    // parent's end [90,120] (clipped to 10). Grandchild [12,18] only
    // reduces its own parent.
    std::vector<Span> v = {
        span(1, 0, 0, 100, "common.parallel_for"),
        span(2, 1, 10, 30, "stochastic.cell"),
        span(3, 1, 20, 50, "stochastic.cell"),
        span(4, 1, 60, 70, "stochastic.cell"),
        span(5, 1, 90, 120, "stochastic.cell"),
        span(6, 2, 12, 18, "sim.run"),
    };
    std::vector<std::int64_t> self = selfTimes(v);
    check(self[0] == 100 - 40 - 10 - 10, "parent self = span - child union");
    check(self[1] == 20 - 6, "child self excludes its grandchild");
    check(self[2] == 30 && self[3] == 10 && self[4] == 30,
          "leaf self = duration");
    check(self[5] == 6, "grandchild self = duration");

    std::map<std::string, double> layers = layerSelfSeconds(v);
    check(std::fabs(layers["common"] - 40e-9) < 1e-15, "common layer self");
    check(std::fabs(layers["stochastic"] - 84e-9) < 1e-15,
          "stochastic layer self");
    check(std::fabs(layers["sim"] - 6e-9) < 1e-15, "sim layer self");

    std::vector<Span> extra = v;
    extra.push_back(span(7, 0, 200, 300, "bench.other"));
    extra.push_back(span(8, 7, 210, 220, "sim.run"));
    check(subtree(extra, "common.parallel_for").size() == 6,
          "subtree keeps only the named roots' descendants");

    Tracer tr(true);
    {
        Scope outer(&tr, "a.outer");
        Scope inner(&tr, "b.inner");
    }
    std::vector<Span> rec = tr.spans();
    check(rec.size() == 2 && rec[0].name == "b.inner" &&
              rec[0].parent == rec[1].id && rec[1].parent == 0,
          "scopes nest through the thread's current span");
    Tracer off(false);
    {
        Scope s(&off, "a.x");
        check(s.id() == 0, "disabled tracer records nothing");
    }
    check(off.spans().empty(), "disabled tracer keeps no spans");
}

void
testSupportedTail()
{
    const std::vector<double> want = {50, 90, 95, 99, 99.9};
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    Tail t = supportedTail(v, want);
    check(t.pct == 99 && t.value == 990 && t.samples == 1000,
          "1000 samples support p99 (10 beyond)");
    v.pop_back();
    t = supportedTail(v, want);
    check(t.pct == 95 && t.value == 950, "999 samples stop at p95");
    t = supportedTail(std::vector<double>(15, 1.0), want);
    check(t.pct == 0, "15 samples support no tail above p50");
    t = supportedTail(std::vector<double>(20, 1.0), want);
    check(t.pct == 50, "20 samples support p50 exactly");
    t = supportedTail({}, want);
    check(t.pct == 0 && t.samples == 0, "empty sample");
    check(quantile({1, 2, 3, 4}, 0.5) == 2.5, "interpolated median");
    check(median({3, 1, 2}) == 2, "odd median");
}

void
testNames()
{
    check(validName("sim.ns_per_cycle.four_stream"), "dotted name");
    check(validName("0abc-d_e.f"), "leading digit");
    check(!validName(""), "empty name");
    check(!validName(".x"), "leading dot");
    check(!validName("a b"), "space");
    check(!validName("a/b"), "slash in name");
    check(!validName(std::string(65, 'a')), "65 characters");
    check(validName(std::string(64, 'a')), "64 characters");
    check(validUnit("Mcycles/s") && validUnit("%") && validUnit("1/kcycle"),
          "units");
    check(!validUnit("") && !validUnit("m s") && !validUnit(std::string(17, 'a')),
          "bad units");

    std::set<std::string> seen;
    for (const auto *cat : {&endToEndCatalog(), &perLayerCatalog()}) {
        for (const MetricDecl &d : *cat) {
            check(validName(d.name) && validUnit(d.unit), d.name.c_str());
            check(seen.insert(d.name).second, "metric names are unique");
        }
    }
    check(perLayerCatalog().size() <= 128, "at most 128 per-layer metrics");
    check(endToEndCatalog().size() <= 16, "at most 16 end-to-end metrics");

    MetricTable t;
    bool threw = false;
    try {
        t.set("bad name", 1, "s");
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    check(threw, "MetricTable rejects an invalid name");
    t.set("ok.name", 0.1, "s");
    check(t.json() == "{\"ok.name\": {\"value\": 0.10000000000000001, "
                      "\"unit\": \"s\"}}",
          "json keeps every digit");
}

} // namespace

int
main()
{
    testSelfTime();
    testSupportedTail();
    testNames();
    std::printf("%s\n", failures ? "selftest: FAILED" : "selftest: ok");
    return failures ? 1 : 0;
}
