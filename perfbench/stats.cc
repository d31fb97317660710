#include "stats.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail
supportedTail(const std::vector<double> &samples,
              const std::vector<double> &wanted, std::size_t beyond)
{
    Tail t;
    t.samples = samples.size();
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (double p : wanted) {
        // 1-based rank of the percentile sample, then how many
        // samples lie strictly above it.
        auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
        if (rank == 0 || rank > v.size() || v.size() - rank < beyond)
            continue;
        t.pct = p;
        t.value = v[rank - 1];
    }
    return t;
}

bool
validName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-')
            return false;
    }
    return true;
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '/' && c != '%' && c != '.' && c != '-')
            return false;
    }
    return true;
}

void
MetricTable::set(const std::string &name, double value,
                 const std::string &unit)
{
    if (!validName(name))
        throw std::invalid_argument("invalid metric name '" + name + "'");
    if (!validUnit(unit))
        throw std::invalid_argument("invalid unit '" + unit + "' for " +
                                    name);
    if (!std::isfinite(value))
        throw std::invalid_argument("non-finite value for " + name);
    m_[name] = Metric{value, unit};
}

bool
MetricTable::has(const std::string &name) const
{
    return m_.count(name) != 0;
}

double
MetricTable::get(const std::string &name) const
{
    auto it = m_.find(name);
    return it == m_.end() ? 0.0 : it->second.value;
}

std::string
MetricTable::json() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, m] : m_) {
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
