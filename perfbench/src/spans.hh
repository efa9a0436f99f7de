/**
 * @file
 * Span recorder for the traced run: one span per call the benchmark
 * makes into a layer (workload -> cell -> layer call), kept in memory
 * and written once when the run ends, then reduced to per-layer self
 * times. Untraced runs construct no recorder, so every SpanScope is a
 * null check.
 */

#ifndef CATCHBENCH_SPANS_HH_
#define CATCHBENCH_SPANS_HH_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace catchbench
{

struct Span
{
    int64_t id = 0;
    int64_t parent = -1; ///< -1 for a root span
    std::string name;    ///< "<layer>.<call>", e.g. "cache.load"
    std::string cell;    ///< "<config>/<kernel>", empty outside cells
    double start = 0;
    double end = 0;
};

/** Self time and call count of every span of one layer. */
struct LayerTime
{
    std::string layer;
    double selfSec = 0;
    double totalSec = 0;
    uint64_t spans = 0;
};

class SpanRecorder
{
  public:
    /** Opens a span; @p parent -1 takes this thread's innermost open
     *  span (pool threads pass the campaign span explicitly). */
    int64_t begin(const std::string &name, const std::string &cell,
                  int64_t parent = -1);
    void end(int64_t id);

    std::vector<Span> spans() const;

    /** Writes every span with its self time plus the layer table;
     *  false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Duration minus the part of it the span's children cover, for every
 *  span (indexed like @p spans). */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Self times summed per layer (the name up to its first '.'). */
std::vector<LayerTime> reduceLayers(const std::vector<Span> &spans);

/** RAII span; a null recorder makes it free. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const std::string &name,
              const std::string &cell = "", int64_t parent = -1)
        : rec_(rec), id_(rec ? rec->begin(name, cell, parent) : -1)
    {
    }
    ~SpanScope()
    {
        if (rec_)
            rec_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int64_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    int64_t id_;
};

} // namespace catchbench

#endif // CATCHBENCH_SPANS_HH_
