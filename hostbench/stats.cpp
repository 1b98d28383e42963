#include "stats.h"

#include <algorithm>
#include <cmath>

namespace hostbench {

Summary
summarize(std::vector<double> values)
{
    Summary s;
    s.n = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    s.median = n % 2 == 1
        ? values[n / 2]
        : (values[n / 2 - 1] + values[n / 2]) / 2;
    if (n == 1) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    // statistics.quantiles(method="exclusive"): m = n + 1, cut point
    // i at position i*m/4 (1-based, clamped to 1..n-1), linearly
    // interpolated from the clamped position.
    const auto cut = [&](long i) {
        const long m = static_cast<long>(n) + 1;
        const long j = std::clamp<long>(i * m / 4, 1,
                                        static_cast<long>(n) - 1);
        const long delta = i * m - j * 4;
        return (values[j - 1] * static_cast<double>(4 - delta)
                + values[j] * static_cast<double>(delta))
            / 4;
    };
    s.q1 = cut(1);
    s.q3 = cut(3);
    return s;
}

Tail
tailOf(std::vector<double> values)
{
    Tail t;
    t.n = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    const auto rankOf = [&](double p) {
        const double r = std::ceil(p / 100.0 * static_cast<double>(t.n));
        return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1,
                                       t.n);
    };
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const std::size_t rank = rankOf(p);
        if (t.n - rank >= 10 || p == 50.0) {
            t.percentile = p;
            t.value = values[rank - 1];
            t.beyond = t.n - rank;
            return t;
        }
    }
    return t;
}

} // namespace hostbench
