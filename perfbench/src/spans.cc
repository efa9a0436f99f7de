#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.hh"
#include "common/host_clock.hh"

namespace catchbench
{

using catchsim::hostSeconds;

namespace
{

/** This thread's open spans, innermost last. */
thread_local std::vector<int64_t> tOpen;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

int64_t
SpanRecorder::begin(const std::string &name, const std::string &cell,
                    int64_t parent)
{
    if (parent < 0 && !tOpen.empty())
        parent = tOpen.back();
    Span s;
    s.parent = parent;
    s.name = name;
    s.cell = cell;
    s.start = hostSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(s));
    tOpen.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanRecorder::end(int64_t id)
{
    double t = hostSeconds();
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(id)].end = t;
    }
    auto it = std::find(tOpen.rbegin(), tOpen.rend(), id);
    if (it != tOpen.rend())
        tOpen.erase(std::next(it).base());
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const auto &s : spans)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Children on pool threads overlap each other; subtract the
        // union of their intervals, clipped to the parent.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[i] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

std::vector<LayerTime>
reduceLayers(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    std::map<std::string, LayerTime> by;
    for (size_t i = 0; i < spans.size(); ++i) {
        std::string layer = spans[i].name.substr(0, spans[i].name.find('.'));
        LayerTime &t = by[layer];
        t.layer = layer;
        t.selfSec += self[i];
        t.totalSec += spans[i].end - spans[i].start;
        ++t.spans;
    }
    std::vector<LayerTime> out;
    for (auto &[k, v] : by)
        out.push_back(v);
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.selfSec > b.selfSec;
    });
    return out;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::vector<double> self = selfTimes(all);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double t0 = all.empty() ? 0 : all.front().start;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "  {\"id\": %lld, \"parent\": %lld, \"name\": \"%s\", "
                     "\"cell\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                     "\"self_s\": %.9f}%s\n",
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     jsonEscape(s.name).c_str(), jsonEscape(s.cell).c_str(),
                     s.start - t0, s.end - t0, self[i],
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "], \"layers\": {\n");
    auto layers = reduceLayers(all);
    for (size_t i = 0; i < layers.size(); ++i)
        std::fprintf(f,
                     "  \"%s\": {\"self_s\": %.9f, \"total_s\": %.9f, "
                     "\"spans\": %llu}%s\n",
                     jsonEscape(layers[i].layer).c_str(), layers[i].selfSec,
                     layers[i].totalSec,
                     static_cast<unsigned long long>(layers[i].spans),
                     i + 1 < layers.size() ? "," : "");
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
}

} // namespace catchbench
