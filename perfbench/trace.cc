#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench
{

namespace
{
thread_local std::uint64_t tlsCurrent = 0;
} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Tracer::record(Span s)
{
    std::lock_guard<std::mutex> g(mu_);
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> g(mu_);
    return spans_;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::vector<Span> all = spans();
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"id\": %llu, \"parent\": %llu, "
                     "\"req\": %llu}%s\n",
                     s.name.c_str(), static_cast<long long>(s.start),
                     static_cast<long long>(s.end),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.req),
                     i + 1 < all.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

Scope::Scope(Tracer *t, const char *name, std::uint64_t req,
             std::uint64_t parent)
{
    if (!t || !t->enabled())
        return;
    t_ = t;
    span_.name = name;
    span_.id = t->nextId();
    span_.parent = parent == kCurrent ? tlsCurrent : parent;
    span_.req = req;
    savedCurrent_ = tlsCurrent;
    tlsCurrent = span_.id;
    span_.start = nowNs();
}

Scope::~Scope()
{
    if (!t_)
        return;
    span_.end = nowNs();
    tlsCurrent = savedCurrent_;
    t_->record(std::move(span_));
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    // Child intervals per parent, clipped to the parent's interval.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span &p = spans[it->second];
        std::int64_t a = std::max(s.start, p.start);
        std::int64_t b = std::min(s.end, p.end);
        if (a < b)
            kids[it->second].emplace_back(a, b);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, curA = 0, curB = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += curB - curA;
        self[i] = (spans[i].end - spans[i].start) - covered;
    }
    return self;
}

std::map<std::string, double>
layerSelfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string &n = spans[i].name;
        out[n.substr(0, n.find('.'))] += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
}

std::vector<Span>
subtree(const std::vector<Span> &spans, const std::string &root)
{
    std::unordered_map<std::uint64_t, const Span *> byId;
    for (const Span &s : spans)
        byId[s.id] = &s;
    std::vector<Span> out;
    for (const Span &s : spans) {
        for (const Span *p = &s; p != nullptr;) {
            if (p->name == root) {
                out.push_back(s);
                break;
            }
            auto it = byId.find(p->parent);
            p = it == byId.end() ? nullptr : it->second;
        }
    }
    return out;
}

std::vector<double>
durations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (s.name == name)
            out.push_back(static_cast<double>(s.end - s.start) * 1e-9);
    }
    return out;
}

} // namespace perfbench
