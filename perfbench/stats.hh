/**
 * @file
 * Sample statistics and the metric table the benchmark prints.
 *
 * Every timing the benchmark reports is a distribution over repeated
 * operations: its median, and for tails the highest percentile that
 * still has at least ten samples beyond it (a p99 over 300 samples is
 * three samples, i.e. noise).
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Linear-interpolated quantile @p q in [0, 1] of @p v (0 when empty),
 * the same rule as numpy's default.
 */
double quantile(std::vector<double> v, double q);

/** A tail percentile and the sample it was taken from. */
struct Tail
{
    double pct = 0;   ///< percentile in [0, 100); 0 when none qualifies
    double value = 0; ///< the sample value at that percentile
    std::size_t samples = 0;
};

/**
 * The highest of @p wanted (ascending percentiles, e.g. {50, 90, 99,
 * 99.9}) that leaves at least @p beyond samples strictly above its
 * rank: percentile p over n samples qualifies when
 * n - ceil(p/100 * n) >= beyond.
 */
Tail supportedTail(const std::vector<double> &samples,
                   const std::vector<double> &wanted,
                   std::size_t beyond = 10);

/** True when @p name is a valid metric or workload name. */
bool validName(const std::string &name);

/** True when @p unit is a valid metric unit. */
bool validUnit(const std::string &unit);

/** One named measurement. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/**
 * An ordered name -> (value, unit) table. set() rejects (throws
 * std::invalid_argument) names and units outside the benchmark's
 * naming rules, so a typo cannot reach the output.
 */
class MetricTable
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    bool has(const std::string &name) const;
    double get(const std::string &name) const;
    const std::map<std::string, Metric> &all() const { return m_; }

    /** `{"name": {"value": v, "unit": "u"}, ...}` */
    std::string json() const;

  private:
    std::map<std::string, Metric> m_;
};

/** Format a double with all its significant digits. */
std::string num(double v);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
