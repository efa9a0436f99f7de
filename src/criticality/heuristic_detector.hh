/**
 * @file
 * Heuristics-based criticality detection, after Tune et al. [2] and
 * Subramaniam et al. [6] - the approach the paper's Section IV-A argues
 * *against*: "while using heuristics to identify critical load PCs may
 * be simple to implement, they often flag many more PCs than are truly
 * critical."
 *
 * The detector marks a load PC when retirement-visible signals suggest
 * criticality:
 *   - a branch that later mispredicts is (transitively) data-dependent
 *    on the load ("feeds-mispredict"), or
 *   - the load reached the head of the ROB before completing
 *     ("oldest-uncompleted", approximated as retire-stall > threshold).
 *
 * It feeds the same CriticalTable as the DDG detector so the two can be
 * swapped under TACT and compared (bench_ablation_detectors).
 */

#ifndef CATCHSIM_CRITICALITY_HEURISTIC_DETECTOR_HH_
#define CATCHSIM_CRITICALITY_HEURISTIC_DETECTOR_HH_

#include <vector>

#include "criticality/critical_table.hh"
#include "criticality/ddg.hh"

namespace catchsim
{

/** Detector statistics. */
struct HeuristicStats
{
    uint64_t retired = 0;
    uint64_t flaggedFeedsMispredict = 0;
    uint64_t flaggedRobStall = 0;
};

class HeuristicCriticalityDetector : public CriticalityDetector
{
  public:
    /**
     * @param rob_stall_threshold cycles an instruction may sit completed
     *        behind the retirement point before its load is flagged
     */
    explicit HeuristicCriticalityDetector(
        const CriticalityConfig &cfg, uint32_t rob_stall_threshold = 12);

    /** Consumes the same retirement records as the DDG detector. */
    void onRetire(const RetireInfo &ri) override;

    CriticalTable &table() override { return table_; }
    const CriticalTable &table() const override { return table_; }
    const HeuristicStats &stats() const { return stats_; }

  private:
    /** Ring of recent load PCs by producing seqnum (dependence walk). */
    struct Recent
    {
        SeqNum seq = 0;
        Addr loadPc = 0;  ///< 0 if the producer chain has no L2/LLC load
        bool recordable = false;
    };

    Recent &slot(SeqNum seq) { return recent_[seq % recent_.size()]; }

    CriticalTable table_;
    std::vector<Recent> recent_;
    uint32_t robStallThreshold_;
    uint64_t retiredTotal_ = 0;
    HeuristicStats stats_;
};

} // namespace catchsim

#endif // CATCHSIM_CRITICALITY_HEURISTIC_DETECTOR_HH_
