/**
 * @file
 * TACT-Feeder (Section IV-B1): data-dependence prefetching for critical
 * loads whose *address* is a linear function of another load's *data*.
 *
 * Feeder identification tracks, for every architectural register, the PC
 * of the youngest load that (directly or transitively) produced it; the
 * feeder of a critical target is the youngest load PC among the target's
 * source registers. Once a feeder is confirmed (2-bit confidence), the
 * learner searches for addr = scale * data + base with scale in
 * {1,2,4,8} (shift-only hardware) and 2-bit confidence on the base.
 *
 * Prefetching: the feeder runs ahead on its own baseline stride (up to
 * feederDepth instances); each feeder prefetch, once its data would be
 * available, triggers the dependent target prefetch - the functional
 * memory supplies the value the fill would have returned.
 */

#ifndef CATCHSIM_TACT_TACT_FEEDER_HH_
#define CATCHSIM_TACT_TACT_FEEDER_HH_

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/sat_counter.hh"
#include "common/sim_config.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "trace/micro_op.hh"

namespace catchsim
{

class TactFeeder
{
  public:
    /** Issues a prefetch; returns the cycle the data will be available. */
    using IssueFn = std::function<Cycle(Addr addr, Cycle now)>;
    /** Timing-only probe: when would this line's data be available? */
    using ProbeFn = std::function<Cycle(Addr addr, Cycle now)>;
    using StrideFn = std::function<bool(Addr pc, int64_t *stride)>;
    /** Reads the value a fill of @p addr would return. */
    using ReadMemFn = std::function<uint64_t(Addr addr)>;

    TactFeeder(const TactConfig &cfg, StrideFn stride, IssueFn issue,
               ProbeFn probe, ReadMemFn read_mem);

    /** Program-order register-tracking update (every retired op). */
    void onRetire(const MicroOp &op);

    /** Called on each dispatch of a critical target load. */
    void onCriticalLoad(const MicroOp &op, Cycle now);

    /** Called when any load's value becomes available. */
    void onLoadComplete(Addr pc, Addr addr, uint64_t value, Cycle now);

    void dropTarget(Addr pc);

    uint64_t issued() const { return issued_; }
    uint64_t feederRunaheads() const { return runaheads_; }

    /** Serializes register tracking, learner/feeder maps (ascending key
     *  order) and the issue counters. */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream; false on a malformed one. */
    bool loadWarmState(StateSource &src);

  private:
    static constexpr int kNumScales = 4;
    static constexpr int64_t kScales[kNumScales] = {1, 2, 4, 8};
    static constexpr uint32_t kTriesPerScale = 8;

    struct TargetState
    {
        // Feeder identification.
        Addr candidateFeeder = 0;
        SatCounter feederConf{2, 0};
        bool feederConfirmed = false;
        // Linear-relation learning.
        int scaleIdx = 0;
        uint32_t triesOnScale = 0;
        uint32_t scaleRounds = 0;
        int64_t lastBase = 0;
        bool haveBase = false;
        SatCounter baseConf{2, 0};
        bool learned = false;
        int64_t scale = 1;
        int64_t base = 0;
        bool exhausted = false;
    };

    struct FeederState
    {
        uint64_t lastValue = 0;
        bool haveValue = false;
        std::vector<Addr> targets;
    };

    void learnRelation(TargetState &st, uint64_t feeder_value,
                       Addr target_addr);

    TactConfig cfg_;
    StrideFn stride_;
    IssueFn issue_;
    ProbeFn probe_;
    ReadMemFn readMem_;

    std::vector<Addr> regLastLoadPc_;
    std::vector<SeqNum> regLastLoadSeq_;
    SeqNum seq_ = 0;

    std::unordered_map<Addr, TargetState> targets_;
    std::unordered_map<Addr, FeederState> feeders_;

    uint64_t issued_ = 0;
    uint64_t runaheads_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_TACT_TACT_FEEDER_HH_
